package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

func TestTable1(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "map") || !strings.Contains(out, "reduce") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "20") || !strings.Contains(out, "10") {
		t.Errorf("table missing priorities:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("table missing wildcard locality:\n%s", out)
	}
}

func TestRunningExample(t *testing.T) {
	tl, tree, err := RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tl.Tasks); got != 6 {
		t.Fatalf("placed %d tasks", got)
	}
	// Paper Figure 7 shape.
	if got := tree.String(); got != "S(S(P(m0,P(m1,m2)),P(m3,s0)),g0)" {
		t.Errorf("tree = %s", got)
	}
	out := FormatTimeline(tl)
	if !strings.Contains(out, "node 1:") || !strings.Contains(out, "border=") {
		t.Errorf("formatted timeline missing pieces:\n%s", out)
	}
}

func TestFigureSpecsCoverPaper(t *testing.T) {
	specs := FigureSpecs()
	want := map[string]bool{
		"fig10": false, "fig11": false, "fig12": false,
		"fig13": false, "fig14": false, "fig15": false,
	}
	for _, s := range specs {
		if _, ok := want[s.ID]; !ok {
			t.Errorf("unexpected figure %s", s.ID)
		}
		want[s.ID] = true
		if s.InputMB <= 0 || s.BlockSizeMB <= 0 {
			t.Errorf("%s has zero config", s.ID)
		}
		if len(s.Nodes) == 0 && len(s.Jobs) == 0 {
			t.Errorf("%s sweeps nothing", s.ID)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("figure %s missing", id)
		}
	}
}

func TestRunPointSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed point in -short mode")
	}
	p, err := RunPoint(2, 1, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sim <= 0 || p.ForkJoin <= 0 || p.Tripathi <= 0 {
		t.Errorf("point = %+v", p)
	}
	if p.ForkJoin >= p.Tripathi {
		t.Errorf("estimator ordering violated: fj %v >= tp %v", p.ForkJoin, p.Tripathi)
	}
}

// TestRunPointMatchesSerial: the concurrent RunPoint returns exactly what
// running its parts one after another does — the median of the seeded
// simulations, then a solo core.Predict per estimator. Compare on a
// 2-class cluster shares the spec's class slice between both goroutines.
func TestRunPointMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed points in -short mode")
	}
	for _, c := range []struct{ nodes, jobs int }{{4, 1}, {6, 4}} {
		got, err := RunPoint(c.nodes, c.jobs, 1*GB, 128)
		if err != nil {
			t.Fatal(err)
		}
		job, err := JobFor(1*GB, 128, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if want := serialPoint(t, cluster.Default(c.nodes), job, c.jobs, BaseSeed, Reps); got != want {
			t.Errorf("%d nodes, %d jobs: RunPoint = %+v, serial = %+v", c.nodes, c.jobs, got, want)
		}
	}
	spec := cluster.Default(0)
	spec.Classes = []cluster.NodeClass{
		{Name: "fast", Count: 2, Capacity: cluster.Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1},
		{Name: "slow", Count: 2, Capacity: cluster.Resource{MemoryMB: 16384, VCores: 16},
			CPUs: 4, Disks: 1, DiskMBps: 140, NetworkMBps: 110, Speed: 0.6},
	}
	job, err := JobFor(1*GB, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compare(spec, job, 2, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialPoint(t, spec, job, 2, 7, 3); got != want {
		t.Errorf("2-class cluster: Compare = %+v, serial = %+v", got, want)
	}
}

// serialPoint is Compare's result computed one step after another.
func serialPoint(t *testing.T, spec cluster.Spec, job workload.Job, numJobs int, seed int64, reps int) Point {
	t.Helper()
	jobs := make([]workload.Job, numJobs)
	for i := range jobs {
		jobs[i] = job
		jobs[i].ID = i
	}
	pol := yarn.PolicyFIFO
	if numJobs > 1 {
		pol = yarn.PolicyFair
	}
	res, err := mrsim.RunMedianOfSeeds(mrsim.Config{Spec: spec, Jobs: jobs, Seed: seed, Scheduler: pol}, reps)
	if err != nil {
		t.Fatal(err)
	}
	want := Point{Sim: res.MeanResponse()}
	for _, e := range []struct {
		est core.Estimator
		out *float64
	}{{core.EstimatorForkJoin, &want.ForkJoin}, {core.EstimatorTripathi, &want.Tripathi}} {
		pred, err := core.Predict(core.Config{Spec: spec, Job: job, NumJobs: numJobs, Estimator: e.est})
		if err != nil {
			t.Fatal(err)
		}
		*e.out = pred.ResponseTime
	}
	return want
}

// TestCompareErrorsJoin: a failing Compare reports the simulator's error
// first and returns only after the model goroutine has finished. The
// zero-reps case fails the simulator at once while the model solves Fig.
// 13's 4-node point (tens of milliseconds), so a Compare that did not wait
// would leave that goroutine running.
func TestCompareErrorsJoin(t *testing.T) {
	job, err := JobFor(5*GB, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := job
	bad.InputMB = 0
	spec := cluster.Default(4)
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		name string
		job  workload.Job
		reps int
	}{
		{"invalid job", bad, 1}, // both sides fail
		{"zero reps", job, 0},   // only the simulator fails
	} {
		_, err := Compare(spec, c.job, 4, BaseSeed, c.reps)
		if n := goroutinesAfter(before); n > before {
			t.Errorf("%s: %d goroutines after Compare, %d before", c.name, n, before)
		}
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		_, simErr := mrsim.RunMedianOfSeeds(mrsim.Config{Spec: spec, Jobs: []workload.Job{c.job}, Seed: BaseSeed}, c.reps)
		if simErr == nil || err.Error() != simErr.Error() {
			t.Errorf("%s: error %q, want the simulator's %v", c.name, err, simErr)
		}
	}
}

// goroutinesAfter returns the goroutine count once it is back to before,
// or after 5 ms: a goroutine that has handed over its result may take a
// moment to exit, but not as long as a model solve.
func goroutinesAfter(before int) int {
	deadline := time.Now().Add(5 * time.Millisecond)
	for {
		n := runtime.NumGoroutine()
		if n <= before || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestErrorBands is the calibration guard: the reproduction's headline
// claims. Fork/join must track the simulator more closely than Tripathi,
// both must overestimate in (almost) every configuration, and the error
// bands must stay near the paper's (11–13.5% / 19–23%). The guard bounds
// are deliberately wider than the paper's point estimates — the substrate
// is a simulator, not the authors' testbed (see EXPERIMENTS.md).
func TestErrorBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	singleJob := []Spec{}
	for _, s := range FigureSpecs() {
		if s.FixedJobs == 1 && s.XName == "nodes" {
			singleJob = append(singleJob, s)
		}
	}
	var figs []Figure
	for _, s := range singleJob {
		fig, err := RunFigure(s)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	b := Bands(figs)
	if b.Total == 0 {
		t.Fatal("no points")
	}
	// Overestimation dominates (the paper: "with both approaches we
	// overestimate the execution time"). The model's deterministic wave
	// structure underestimates stochastic backfill contention at a minority
	// of points (see EXPERIMENTS.md), so the guard requires a clear majority
	// plus positive mean error rather than unanimity.
	if 3*b.FJOver < 2*b.Total {
		t.Errorf("fork/join overestimates only %d/%d points", b.FJOver, b.Total)
	}
	if 3*b.TPOver < 2*b.Total {
		t.Errorf("tripathi overestimates only %d/%d points", b.TPOver, b.Total)
	}
	var fjMean, tpMean float64
	ranked := 0
	for _, f := range figs {
		for _, p := range f.Points {
			fjMean += p.FJErr()
			tpMean += p.TPErr()
			if p.FJErr() < -0.18 || p.FJErr() > 0.30 {
				t.Errorf("%s x=%d: fork/join error %+.1f%% outside guard [-18%%, +30%%]",
					f.ID, p.X, 100*p.FJErr())
			}
			if p.TPErr() < -0.18 || p.TPErr() > 0.45 {
				t.Errorf("%s x=%d: tripathi error %+.1f%% outside guard [-18%%, +45%%]",
					f.ID, p.X, 100*p.TPErr())
			}
			if p.FJErr() < p.TPErr() {
				ranked++
			}
		}
	}
	fjMean /= float64(b.Total)
	tpMean /= float64(b.Total)
	if fjMean <= 0 {
		t.Errorf("fork/join mean error %.1f%% not an overestimate", 100*fjMean)
	}
	if tpMean <= fjMean {
		t.Errorf("tripathi mean error %.1f%% not above fork/join %.1f%% (paper ranking)",
			100*tpMean, 100*fjMean)
	}
	// Ranking: the Tripathi estimate sits above fork/join at (almost) every
	// point, as in the paper.
	if 4*ranked < 3*b.Total {
		t.Errorf("tripathi above fork/join at only %d/%d points", ranked, b.Total)
	}
}

// TestMultiJobErrorGuards bounds every point of figs. 11, 13 and 14, the
// figures TestErrorBands leaves out. Each estimator's signed error must stay
// inside the range EXPERIMENTS.md records for that figure, widened by a
// margin of 5 percentage points on each side. The recorded ranges include
// the worst points of the report: fig11@6 (fork/join −24.8%, Tripathi
// −18.7%) and fig13@6 (Tripathi +29.2%).
func TestMultiJobErrorGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep in -short mode")
	}
	const margin = 0.05
	recorded := map[string]struct{ fjLo, fjHi, tpLo, tpHi float64 }{
		"fig11": {-0.248, 0.078, -0.187, 0.183},
		"fig13": {0.142, 0.245, 0.239, 0.292},
		"fig14": {0.021, 0.227, 0.104, 0.247},
	}
	ran := 0
	for _, s := range FigureSpecs() {
		r, ok := recorded[s.ID]
		if !ok {
			continue
		}
		ran++
		fig, err := RunFigure(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range fig.Points {
			if e := p.FJErr(); e < r.fjLo-margin || e > r.fjHi+margin {
				t.Errorf("%s %s=%d: fork/join error %+.1f%% outside guard [%+.1f%%, %+.1f%%]",
					s.ID, s.XName, p.X, 100*e, 100*(r.fjLo-margin), 100*(r.fjHi+margin))
			}
			if e := p.TPErr(); e < r.tpLo-margin || e > r.tpHi+margin {
				t.Errorf("%s %s=%d: tripathi error %+.1f%% outside guard [%+.1f%%, %+.1f%%]",
					s.ID, s.XName, p.X, 100*e, 100*(r.tpLo-margin), 100*(r.tpHi+margin))
			}
		}
	}
	if ran != len(recorded) {
		t.Errorf("guarded %d of %d figures", ran, len(recorded))
	}
}

func TestMultiJobShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep in -short mode")
	}
	// Figure 14 shape: simulated response grows monotonically with the
	// number of concurrent jobs and the model tracks the growth from above.
	prevSim := 0.0
	for n := 1; n <= 3; n++ {
		p, err := RunPoint(4, n, 1*GB, 128)
		if err != nil {
			t.Fatal(err)
		}
		if p.Sim <= prevSim {
			t.Errorf("sim response not growing at %d jobs: %v <= %v", n, p.Sim, prevSim)
		}
		prevSim = p.Sim
		if p.FJErr() < -0.05 {
			t.Errorf("%d jobs: fork/join underestimates by %.1f%%", n, 100*p.FJErr())
		}
	}
}
