package timeline

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// ByClass returns the placed tasks of one class, in placement order.
func (tl *Timeline) ByClass(c Class) []Placed {
	var out []Placed
	for _, t := range tl.Tasks {
		if t.Class == c {
			out = append(out, t)
		}
	}
	return out
}

// Phase is a maximal interval during which the set of running tasks is
// constant (§4.2.2: "each start or end of a task indicates the start of a new
// phase").
type Phase struct {
	Start, End float64
	// Active holds indices into Timeline.Tasks.
	Active []int
}

// Phases splits the timeline at every task start/end.
func (tl *Timeline) Phases() []Phase {
	var cuts []float64
	for _, t := range tl.Tasks {
		cuts = append(cuts, t.Start, t.End)
	}
	sort.Float64s(cuts)
	uniq := cuts[:0]
	for _, c := range cuts {
		if len(uniq) == 0 || c > uniq[len(uniq)-1]+1e-12 {
			uniq = append(uniq, c)
		}
	}
	var phases []Phase
	for i := 0; i+1 < len(uniq); i++ {
		p := Phase{Start: uniq[i], End: uniq[i+1]}
		mid := (p.Start + p.End) / 2
		for idx, t := range tl.Tasks {
			if t.Start <= mid && mid < t.End {
				p.Active = append(p.Active, idx)
			}
		}
		if len(p.Active) > 0 {
			phases = append(phases, p)
		}
	}
	return phases
}

// runningExample is the paper's n=3, m=4, r=1 scenario.
func runningExample(slowStart bool) Input {
	in := Input{
		NumNodes:           3,
		MapSlotsPerNode:    1,
		ReduceSlotsPerNode: 1,
		SlowStart:          slowStart,
	}
	for i := 0; i < 4; i++ {
		in.Maps = append(in.Maps, MapTask{ID: i, Duration: 10, ShuffleDuration: 3})
	}
	in.Reduces = append(in.Reduces, ReduceTask{ID: 0, ShuffleSortBase: 4, MergeDuration: 5})
	return in
}

func TestValidateRejections(t *testing.T) {
	base := runningExample(true)
	tests := []struct {
		name   string
		mutate func(*Input)
	}{
		{"zero nodes", func(in *Input) { in.NumNodes = 0 }},
		{"zero map slots", func(in *Input) { in.MapSlotsPerNode = 0 }},
		{"zero reduce slots", func(in *Input) { in.ReduceSlotsPerNode = 0 }},
		{"no maps", func(in *Input) { in.Maps = nil }},
		{"bad map duration", func(in *Input) { in.Maps[0].Duration = 0 }},
		{"negative shuffle", func(in *Input) { in.Maps[0].ShuffleDuration = -1 }},
		{"negative reduce", func(in *Input) { in.Reduces[0].MergeDuration = -1 }},
		{"zero reduce total", func(in *Input) {
			in.Reduces[0].ShuffleSortBase = 0
			in.Reduces[0].MergeDuration = 0
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := runningExample(true)
			tt.mutate(&in)
			if _, err := Build(in); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := Build(base); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

// NaN fails every comparison and +Inf passes the sign checks, so each
// duration is rejected when non-finite; Build would otherwise return a NaN
// or +Inf makespan.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mutate func(*Input)
	}{
		{"NaN map duration", func(in *Input) { in.Maps[0].Duration = nan }},
		{"+Inf map duration", func(in *Input) { in.Maps[1].Duration = inf }},
		{"NaN shuffle duration", func(in *Input) { in.Maps[0].ShuffleDuration = nan }},
		{"+Inf shuffle duration", func(in *Input) { in.Maps[2].ShuffleDuration = inf }},
		{"NaN shuffle-sort base", func(in *Input) { in.Reduces[0].ShuffleSortBase = nan }},
		{"+Inf shuffle-sort base", func(in *Input) { in.Reduces[0].ShuffleSortBase = inf }},
		{"-Inf shuffle-sort base", func(in *Input) { in.Reduces[0].ShuffleSortBase = -inf }},
		{"NaN merge duration", func(in *Input) { in.Reduces[0].MergeDuration = nan }},
		{"+Inf merge duration", func(in *Input) { in.Reduces[0].MergeDuration = inf }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := runningExample(true)
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("Validate accepted a non-finite duration")
			}
		})
	}
}

// Task IDs name placed tasks within a class, so a negative or repeated map
// or reduce ID is rejected; any order of distinct IDs is accepted.
func TestValidateTaskIDs(t *testing.T) {
	twoReduces := func(in *Input) {
		in.Reduces = append(in.Reduces, ReduceTask{ID: 1, ShuffleSortBase: 6, MergeDuration: 5})
	}
	tests := []struct {
		name   string
		mutate func(*Input)
		ok     bool
	}{
		{"in order", func(*Input) {}, true},
		{"shuffled maps", func(in *Input) { in.Maps[0].ID, in.Maps[3].ID = 3, 0 }, true},
		{"sparse maps", func(in *Input) { in.Maps[2].ID = 40 }, true},
		{"shuffled reduces", func(in *Input) { twoReduces(in); in.Reduces[0].ID, in.Reduces[1].ID = 1, 0 }, true},
		{"duplicate map", func(in *Input) { in.Maps[3].ID = 1 }, false},
		{"duplicate map out of order", func(in *Input) { in.Maps[0].ID = 2 }, false},
		{"negative map", func(in *Input) { in.Maps[0].ID = -1 }, false},
		{"duplicate reduce", func(in *Input) { twoReduces(in); in.Reduces[1].ID = 0 }, false},
		{"negative reduce", func(in *Input) { in.Reduces[0].ID = -2 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := runningExample(true)
			tt.mutate(&in)
			err := in.Validate()
			if tt.ok && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestRunningExamplePlacement(t *testing.T) {
	tl, err := Build(runningExample(true))
	if err != nil {
		t.Fatal(err)
	}
	// 4 maps + 1 shuffle-sort + 1 merge = 6 placed tasks.
	if len(tl.Tasks) != 6 {
		t.Fatalf("placed %d tasks, want 6", len(tl.Tasks))
	}
	maps := tl.ByClass(ClassMap)
	if len(maps) != 4 {
		t.Fatalf("%d maps", len(maps))
	}
	// First wave: m0,m1,m2 on the three nodes at t=0; m4 queued on node 0.
	for i := 0; i < 3; i++ {
		if maps[i].Start != 0 || maps[i].End != 10 {
			t.Errorf("map %d = [%v,%v], want [0,10]", i, maps[i].Start, maps[i].End)
		}
	}
	if maps[3].Start != 10 || maps[3].End != 20 {
		t.Errorf("map 3 = [%v,%v], want [10,20]", maps[3].Start, maps[3].End)
	}
	// Slow start: border at the end of the first map.
	if tl.Border != 10 {
		t.Errorf("border = %v, want 10", tl.Border)
	}
	if tl.LastMapEnd != 20 {
		t.Errorf("lastMapEnd = %v", tl.LastMapEnd)
	}
	// The reduce's shuffle starts at the border.
	ss := tl.ByClass(ClassShuffleSort)[0]
	if ss.Start != 10 {
		t.Errorf("shuffle start = %v, want 10 (border)", ss.Start)
	}
	// Shuffle cannot end before the last map.
	if ss.End < 20 {
		t.Errorf("shuffle end = %v before last map end", ss.End)
	}
	mg := tl.ByClass(ClassMerge)[0]
	if mg.Start != ss.End {
		t.Errorf("merge start %v != shuffle end %v", mg.Start, ss.End)
	}
	if !almostEq(mg.End-mg.Start, 5, 1e-9) {
		t.Errorf("merge duration = %v", mg.End-mg.Start)
	}
	if tl.Makespan != mg.End {
		t.Errorf("makespan = %v, want %v", tl.Makespan, mg.End)
	}
}

func TestNoSlowStartBorder(t *testing.T) {
	tl, err := Build(runningExample(false))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Border != tl.LastMapEnd {
		t.Errorf("border = %v, want lastMapEnd %v", tl.Border, tl.LastMapEnd)
	}
	ss := tl.ByClass(ClassShuffleSort)[0]
	if ss.Start != 20 {
		t.Errorf("shuffle start = %v, want 20", ss.Start)
	}
}

func TestRemoteShuffleInflation(t *testing.T) {
	// The reduce lands on the least-occupied node; maps on other nodes add
	// sd/|R| each to the shuffle duration (Algorithm 1 lines 14-18).
	in := runningExample(false)
	tl, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	ss := tl.ByClass(ClassShuffleSort)[0]
	// The reduce is on node 1 or 2 (node 0 has 2 maps). 3 maps are remote
	// (the 4th shares the reducer's node): duration = 4 + 3*3/1 = 13.
	remote := 0
	for _, m := range tl.ByClass(ClassMap) {
		if m.Node != ss.Node {
			remote++
		}
	}
	want := 4.0 + float64(remote)*3.0
	if !almostEq(ss.Duration(), want, 1e-9) {
		t.Errorf("shuffle duration = %v, want %v (%d remote maps)", ss.Duration(), want, remote)
	}
}

func TestSlotSerialization(t *testing.T) {
	// One node, one slot: everything serializes.
	in := Input{
		NumNodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Maps:    []MapTask{{ID: 0, Duration: 5}, {ID: 1, Duration: 5}},
		Reduces: []ReduceTask{{ID: 0, ShuffleSortBase: 2, MergeDuration: 3}},
	}
	tl, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	maps := tl.ByClass(ClassMap)
	if maps[0].End != 5 || maps[1].Start != 5 || maps[1].End != 10 {
		t.Errorf("maps = %+v", maps)
	}
}

func TestOverlap(t *testing.T) {
	a := Placed{Start: 0, End: 10}
	tests := []struct {
		name string
		b    Placed
		want float64
	}{
		{"contained", Placed{Start: 2, End: 8}, 6},
		{"partial", Placed{Start: 5, End: 15}, 5},
		{"touching", Placed{Start: 10, End: 20}, 0},
		{"disjoint", Placed{Start: 11, End: 20}, 0},
		{"identical", Placed{Start: 0, End: 10}, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Overlap(a, tt.b); got != tt.want {
				t.Errorf("Overlap = %v, want %v", got, tt.want)
			}
			if got := Overlap(tt.b, a); got != tt.want {
				t.Errorf("Overlap not symmetric: %v", got)
			}
		})
	}
}

func TestPhasesPartitionTimeline(t *testing.T) {
	tl, err := Build(runningExample(true))
	if err != nil {
		t.Fatal(err)
	}
	phases := tl.Phases()
	if len(phases) == 0 {
		t.Fatal("no phases")
	}
	// Phases are contiguous and cover [0, makespan].
	if phases[0].Start != 0 {
		t.Errorf("first phase starts at %v", phases[0].Start)
	}
	for i := 1; i < len(phases); i++ {
		if !almostEq(phases[i].Start, phases[i-1].End, 1e-9) {
			t.Errorf("gap between phases %d and %d", i-1, i)
		}
	}
	if !almostEq(phases[len(phases)-1].End, tl.Makespan, 1e-9) {
		t.Errorf("last phase ends at %v, makespan %v", phases[len(phases)-1].End, tl.Makespan)
	}
	// Every active set is constant within a phase: each listed task spans it.
	for _, p := range phases {
		for _, idx := range p.Active {
			task := tl.Tasks[idx]
			if task.Start > p.Start+1e-9 || task.End < p.End-1e-9 {
				t.Errorf("task %d does not span phase [%v,%v]", idx, p.Start, p.End)
			}
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassMap.String() != "map" || ClassShuffleSort.String() != "shuffle-sort" || ClassMerge.String() != "merge" {
		t.Error("class strings wrong")
	}
}

// Property: no two tasks placed on the same (node, lane, class-pool) overlap,
// and every map is placed exactly once.
func TestNoLaneOverlapProperty(t *testing.T) {
	f := func(nMapsQ, nRedQ, nodesQ, slotsQ uint8, slow bool) bool {
		nMaps := int(nMapsQ)%24 + 1
		nRed := int(nRedQ) % 6
		nodes := int(nodesQ)%6 + 1
		slots := int(slotsQ)%3 + 1
		in := Input{
			NumNodes: nodes, MapSlotsPerNode: slots, ReduceSlotsPerNode: slots,
			SlowStart: slow,
		}
		for i := 0; i < nMaps; i++ {
			in.Maps = append(in.Maps, MapTask{ID: i, Duration: 5 + float64(i%3), ShuffleDuration: 1})
		}
		for i := 0; i < nRed; i++ {
			in.Reduces = append(in.Reduces, ReduceTask{ID: i, ShuffleSortBase: 3, MergeDuration: 2})
		}
		tl, err := Build(in)
		if err != nil {
			return false
		}
		if len(tl.ByClass(ClassMap)) != nMaps {
			return false
		}
		if len(tl.ByClass(ClassShuffleSort)) != nRed || len(tl.ByClass(ClassMerge)) != nRed {
			return false
		}
		// Map lanes must not overlap; reduce subtasks share the reduce lane.
		type lane struct{ node, slot int }
		mapLanes := map[lane][]Placed{}
		redLanes := map[lane][]Placed{}
		for _, task := range tl.Tasks {
			l := lane{task.Node, task.Slot}
			if task.Class == ClassMap {
				mapLanes[l] = append(mapLanes[l], task)
			} else {
				redLanes[l] = append(redLanes[l], task)
			}
		}
		for _, group := range []map[lane][]Placed{mapLanes, redLanes} {
			for _, tasks := range group {
				for i := 0; i < len(tasks); i++ {
					for j := i + 1; j < len(tasks); j++ {
						if Overlap(tasks[i], tasks[j]) > 1e-9 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the makespan equals the max task end and all tasks start >= 0.
func TestMakespanProperty(t *testing.T) {
	f := func(nMapsQ, nodesQ uint8) bool {
		nMaps := int(nMapsQ)%30 + 1
		nodes := int(nodesQ)%8 + 1
		in := Input{
			NumNodes: nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, SlowStart: true,
			Reduces: []ReduceTask{{ID: 0, ShuffleSortBase: 2, MergeDuration: 4}},
		}
		for i := 0; i < nMaps; i++ {
			in.Maps = append(in.Maps, MapTask{ID: i, Duration: 7, ShuffleDuration: 0.5})
		}
		tl, err := Build(in)
		if err != nil {
			return false
		}
		maxEnd := 0.0
		for _, task := range tl.Tasks {
			if task.Start < 0 || task.End < task.Start {
				return false
			}
			if task.End > maxEnd {
				maxEnd = task.End
			}
		}
		return almostEq(tl.Makespan, maxEnd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Regression: non-positive slot configuration must be rejected up front —
// a zero or negative count would silently build an empty (or starved) lane
// pool and Build would hang or misprice the placement.
func TestValidateRejectsNonPositiveSlots(t *testing.T) {
	base := func() Input {
		return Input{
			NumNodes:           2,
			MapSlotsPerNode:    2,
			ReduceSlotsPerNode: 1,
			Maps:               []MapTask{{ID: 0, Duration: 1}},
			Reduces:            []ReduceTask{{ID: 0, ShuffleSortBase: 1, MergeDuration: 1}},
		}
	}
	tests := []struct {
		name   string
		mutate func(*Input)
	}{
		{"negative map slots", func(in *Input) { in.MapSlotsPerNode = -1 }},
		{"zero map slots", func(in *Input) { in.MapSlotsPerNode = 0 }},
		{"negative reduce slots", func(in *Input) { in.ReduceSlotsPerNode = -3 }},
		{"zero reduce slots", func(in *Input) { in.ReduceSlotsPerNode = 0 }},
		{"zero entry in map vector", func(in *Input) { in.MapSlotsByNode = []int{2, 0} }},
		{"negative entry in reduce vector", func(in *Input) { in.ReduceSlotsByNode = []int{1, -1} }},
		{"short map vector", func(in *Input) { in.MapSlotsByNode = []int{2} }},
		{"long reduce vector", func(in *Input) { in.ReduceSlotsByNode = []int{1, 1, 1} }},
		{"zero map scale", func(in *Input) { in.MapDurationScaleByNode = []float64{1, 0} }},
		{"negative reduce scale", func(in *Input) { in.ReduceDurationScaleByNode = []float64{-1, 1} }},
		{"NaN map scale", func(in *Input) { in.MapDurationScaleByNode = []float64{1, math.NaN()} }},
		{"short scale vector", func(in *Input) { in.MapDurationScaleByNode = []float64{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := base()
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := Build(in); err == nil {
				t.Error("Build accepted the invalid input")
			}
		})
	}
	// The valid base still builds.
	if _, err := Build(base()); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
}

// A uniform per-node slot vector must reproduce the scalar layout exactly —
// the heterogeneous path degenerates to the homogeneous one.
func TestPerNodeSlotsUniformEquivalence(t *testing.T) {
	mk := func(byNode bool) *Timeline {
		in := Input{
			NumNodes: 3, SlowStart: true,
			Maps:    []MapTask{{0, 10, 1}, {1, 10, 1}, {2, 10, 1}, {3, 10, 1}, {4, 10, 1}, {5, 10, 1}, {6, 10, 1}},
			Reduces: []ReduceTask{{0, 5, 8}, {1, 5, 8}},
		}
		if byNode {
			in.MapSlotsByNode = []int{2, 2, 2}
			in.ReduceSlotsByNode = []int{1, 1, 1}
			in.MapDurationScaleByNode = []float64{1, 1, 1}
			in.ReduceDurationScaleByNode = []float64{1, 1, 1}
		} else {
			in.MapSlotsPerNode = 2
			in.ReduceSlotsPerNode = 1
		}
		tl, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	scalar, vector := mk(false), mk(true)
	if len(scalar.Tasks) != len(vector.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(scalar.Tasks), len(vector.Tasks))
	}
	for i := range scalar.Tasks {
		if scalar.Tasks[i] != vector.Tasks[i] {
			t.Errorf("task %d differs: %+v vs %+v", i, scalar.Tasks[i], vector.Tasks[i])
		}
	}
	if scalar.Makespan != vector.Makespan || scalar.Border != vector.Border {
		t.Errorf("envelope differs: makespan %v/%v border %v/%v",
			scalar.Makespan, vector.Makespan, scalar.Border, vector.Border)
	}
}

// Heterogeneous placement: nodes with more lanes host more maps, and
// duration scaling shifts load toward fast nodes while slowing the tasks
// that do land on slow ones.
func TestPerNodeSlotsAndScalesSkewPlacement(t *testing.T) {
	maps := make([]MapTask, 12)
	for i := range maps {
		maps[i] = MapTask{ID: i, Duration: 10}
	}
	in := Input{
		NumNodes:          2,
		MapSlotsByNode:    []int{3, 1}, // node 0 is thrice as wide
		ReduceSlotsByNode: []int{1, 1},
		Maps:              maps,
		Reduces:           []ReduceTask{{0, 5, 8}},
		SlowStart:         true,
	}
	tl, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, task := range tl.Tasks {
		if task.Class == ClassMap {
			perNode[task.Node]++
		}
	}
	if perNode[0] != 9 || perNode[1] != 3 {
		t.Errorf("lane-proportional split = %v, want 9/3", perNode)
	}

	// Now scale node 1 to be 4x slower: it should receive fewer maps, and
	// each of its maps should run 4x longer.
	in.MapDurationScaleByNode = []float64{1, 4}
	in.ReduceDurationScaleByNode = []float64{1, 4}
	tl, err = Build(in)
	if err != nil {
		t.Fatal(err)
	}
	slowMaps := 0
	for _, task := range tl.Tasks {
		if task.Class != ClassMap {
			continue
		}
		if task.Node == 1 {
			slowMaps++
			if task.Duration() != 40 {
				t.Errorf("slow-node map duration = %v, want 40", task.Duration())
			}
		} else if task.Duration() != 10 {
			t.Errorf("fast-node map duration = %v, want 10", task.Duration())
		}
	}
	if slowMaps >= perNode[1] {
		t.Errorf("slow node still hosts %d maps (unscaled run: %d); want fewer", slowMaps, perNode[1])
	}
}

// One Builder reused across inputs of changing shape — node count, per-node
// lanes and scales, task counts — returns exactly what a fresh Build does.
func TestBuilderReuseMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b Builder
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(6)
		in := Input{NumNodes: nodes, MapSlotsPerNode: 1 + rng.Intn(3), ReduceSlotsPerNode: 1 + rng.Intn(2), SlowStart: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			in.MapSlotsByNode = make([]int, nodes)
			in.ReduceSlotsByNode = make([]int, nodes)
			in.MapDurationScaleByNode = make([]float64, nodes)
			in.ReduceDurationScaleByNode = make([]float64, nodes)
			for n := 0; n < nodes; n++ {
				in.MapSlotsByNode[n] = 1 + rng.Intn(4)
				in.ReduceSlotsByNode[n] = 1 + rng.Intn(2)
				in.MapDurationScaleByNode[n] = 0.5 + rng.Float64()
				in.ReduceDurationScaleByNode[n] = 0.5 + rng.Float64()
			}
		}
		for i := rng.Intn(30); i >= 0; i-- {
			in.Maps = append(in.Maps, MapTask{ID: len(in.Maps), Duration: float64(1 + rng.Intn(20)), ShuffleDuration: float64(rng.Intn(3))})
		}
		for i := rng.Intn(6); i > 0; i-- {
			in.Reduces = append(in.Reduces, ReduceTask{ID: len(in.Reduces), ShuffleSortBase: float64(rng.Intn(8)), MergeDuration: float64(1 + rng.Intn(8))})
		}
		want, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused Builder placed\n%+v\nwant\n%+v", trial, got.Tasks, want.Tasks)
		}
	}
}

// A warmed Builder allocates only the returned Timeline and its Tasks.
func TestBuilderAllocBudget(t *testing.T) {
	in := Input{NumNodes: 8, MapSlotsPerNode: 8, ReduceSlotsPerNode: 4, SlowStart: true}
	for i := 0; i < 160; i++ {
		in.Maps = append(in.Maps, MapTask{ID: i, Duration: 30, ShuffleDuration: 1})
	}
	for i := 0; i < 8; i++ {
		in.Reduces = append(in.Reduces, ReduceTask{ID: i, ShuffleSortBase: 10, MergeDuration: 50})
	}
	var b Builder
	if _, err := b.Build(in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Build(in); err != nil {
			t.Error(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warmed Builder allocated %.0f per Build, budget 2", allocs)
	}
}
