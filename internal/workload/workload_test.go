package workload

import (
	"testing"
	"testing/quick"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, p := range []Profile{WordCount(), Grep(), TeraSort()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"zero map cpu", func(p *Profile) { p.MapCPUPerMB = 0 }},
		{"zero output ratio", func(p *Profile) { p.MapOutputRatio = 0 }},
		{"zero final ratio", func(p *Profile) { p.OutputRatio = 0 }},
		{"zero spills", func(p *Profile) { p.SpillPasses = 0 }},
		{"jitter too big", func(p *Profile) { p.TaskJitterCV = 1.5 }},
		{"jitter negative", func(p *Profile) { p.TaskJitterCV = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := WordCount()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestNewJobValidation(t *testing.T) {
	if _, err := NewJob(0, 1024, 128, 4, WordCount()); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []struct {
		name      string
		in, block float64
		reduces   int
	}{
		{"zero input", 0, 128, 4},
		{"zero block", 1024, 0, 4},
		{"zero reduces", 1024, 128, 0},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewJob(0, tt.in, tt.block, tt.reduces, WordCount()); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNumMaps(t *testing.T) {
	tests := []struct {
		in, block float64
		want      int
	}{
		{1024, 128, 8},
		{5 * 1024, 128, 40},
		{5 * 1024, 64, 80},
		{100, 128, 1},
		{129, 128, 2},
	}
	for _, tt := range tests {
		j, err := NewJob(0, tt.in, tt.block, 1, WordCount())
		if err != nil {
			t.Fatal(err)
		}
		if got := j.NumMaps(); got != tt.want {
			t.Errorf("NumMaps(%v/%v) = %d, want %d", tt.in, tt.block, got, tt.want)
		}
	}
}

func TestSplitMB(t *testing.T) {
	j, err := NewJob(0, 300, 128, 1, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	if got := j.SplitMB(0); got != 128 {
		t.Errorf("split 0 = %v", got)
	}
	if got := j.SplitMB(1); got != 128 {
		t.Errorf("split 1 = %v", got)
	}
	if got := j.SplitMB(2); got != 44 {
		t.Errorf("split 2 = %v, want 44 (partial)", got)
	}
	// Exact multiple: no partial split.
	j2, _ := NewJob(0, 256, 128, 1, WordCount())
	if got := j2.SplitMB(1); got != 128 {
		t.Errorf("exact multiple split = %v", got)
	}
}

func TestSlowStartThreshold(t *testing.T) {
	j, _ := NewJob(0, 1024, 128, 1, WordCount())
	if got := j.SlowStartThreshold(); got != 0.05 {
		t.Errorf("default threshold = %v, want 0.05", got)
	}
	j.SlowStartFraction = 0.5
	if got := j.SlowStartThreshold(); got != 0.5 {
		t.Errorf("override = %v", got)
	}
	j.SlowStart = false
	if got := j.SlowStartThreshold(); got != 1.0 {
		t.Errorf("disabled = %v, want 1.0", got)
	}
}

func TestDataFlowVolumes(t *testing.T) {
	j, _ := NewJob(0, 1000, 128, 4, WordCount())
	wantOut := 1000 * j.Profile.MapOutputRatio
	if got := j.MapOutputMB(); got != wantOut {
		t.Errorf("MapOutputMB = %v, want %v", got, wantOut)
	}
	if got := j.ReduceInputMB(); got != wantOut/4 {
		t.Errorf("ReduceInputMB = %v, want %v", got, wantOut/4)
	}
}

func TestDemandsPositiveAndComposition(t *testing.T) {
	j, _ := NewJob(0, 1024, 128, 4, WordCount())
	md := j.MapDemands(128, 240)
	ss := j.ShuffleSortDemands(110, 240)
	mg := j.MergeDemands(240)
	for name, d := range map[string]Demands{"map": md, "shuffle": ss, "merge": mg} {
		if d.CPU < 0 || d.Disk < 0 || d.Network < 0 {
			t.Errorf("%s has negative demand: %+v", name, d)
		}
		if d.CPU+d.Disk+d.Network <= 0 {
			t.Errorf("%s has zero total", name)
		}
	}
	if md.Network != 0 {
		t.Errorf("map should have no network demand, got %v", md.Network)
	}
	if ss.Network <= 0 {
		t.Error("shuffle-sort should have network demand")
	}
	if mg.Network != 0 {
		t.Errorf("merge should have no network demand, got %v", mg.Network)
	}
}

func TestMapDemandsScaleWithSplit(t *testing.T) {
	j, _ := NewJob(0, 1024, 128, 4, WordCount())
	small := j.MapDemands(64, 240)
	big := j.MapDemands(128, 240)
	// CPU scales linearly beyond the fixed container startup.
	p := j.Profile
	gotRatio := (big.CPU - p.ContainerStartup) / (small.CPU - p.ContainerStartup)
	if gotRatio < 1.99 || gotRatio > 2.01 {
		t.Errorf("cpu scaling ratio = %v, want ~2", gotRatio)
	}
	if big.Disk <= small.Disk {
		t.Error("disk demand should grow with split size")
	}
}

func TestReduceDemandsShrinkWithMoreReducers(t *testing.T) {
	j4, _ := NewJob(0, 1024, 128, 4, WordCount())
	j8, _ := NewJob(0, 1024, 128, 8, WordCount())
	if j8.ShuffleSortDemands(110, 240).Network >= j4.ShuffleSortDemands(110, 240).Network {
		t.Error("per-reducer shuffle should shrink with more reducers")
	}
	if j8.MergeDemands(240).CPU >= j4.MergeDemands(240).CPU {
		t.Error("per-reducer merge should shrink with more reducers")
	}
}

// Property: demands are monotone in split size and never negative.
func TestMapDemandsMonotoneProperty(t *testing.T) {
	j, _ := NewJob(0, 10240, 128, 4, WordCount())
	f := func(aQ, bQ uint8) bool {
		a := float64(aQ) + 1
		b := float64(bQ) + 1
		if a > b {
			a, b = b, a
		}
		da := j.MapDemands(a, 240)
		db := j.MapDemands(b, 240)
		return da.CPU <= db.CPU+1e-9 && da.Disk <= db.Disk+1e-9 &&
			da.CPU > 0 && da.Disk >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total reduce input over all reducers equals the map output.
func TestReduceConservationProperty(t *testing.T) {
	f := func(rQ uint8, inQ uint16) bool {
		r := int(rQ)%32 + 1
		in := float64(inQ%10000) + 1
		j, err := NewJob(0, in, 128, r, WordCount())
		if err != nil {
			return false
		}
		total := j.ReduceInputMB() * float64(r)
		return total > j.MapOutputMB()-1e-6 && total < j.MapOutputMB()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopies(t *testing.T) {
	j, err := NewJob(7, 1024, 128, 2, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	jobs := j.Copies(3)
	if len(jobs) != 3 {
		t.Fatalf("%d copies, want 3", len(jobs))
	}
	for i, c := range jobs {
		want := j
		want.ID = i
		if c != want {
			t.Errorf("copy %d = %+v, want %+v", i, c, want)
		}
	}
}
