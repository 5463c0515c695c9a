package workflow

import (
	"math"
	"reflect"
	"testing"
)

func diamond() *DAG {
	return &DAG{
		Stages: []string{"src", "left", "right", "join"},
		Edges: []Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
}

// Index returns the declaration index of a stage name, or -1.
func (d *DAG) Index(name string) int {
	for i, s := range d.Stages {
		if s == name {
			return i
		}
	}
	return -1
}

func TestValidateRejectsMalformedDAGs(t *testing.T) {
	cases := []struct {
		name string
		dag  *DAG
	}{
		{"nil", nil},
		{"empty", &DAG{}},
		{"empty-name", &DAG{Stages: []string{"a", ""}}},
		{"duplicate-name", &DAG{Stages: []string{"a", "a"}}},
		{"undefined-from", &DAG{Stages: []string{"a"}, Edges: []Edge{{From: "x", To: "a"}}}},
		{"undefined-to", &DAG{Stages: []string{"a"}, Edges: []Edge{{From: "a", To: "x"}}}},
		{"self-edge", &DAG{Stages: []string{"a"}, Edges: []Edge{{From: "a", To: "a"}}}},
		{"duplicate-edge", &DAG{Stages: []string{"a", "b"},
			Edges: []Edge{{From: "a", To: "b"}, {From: "a", To: "b"}}}},
		{"two-cycle", &DAG{Stages: []string{"a", "b"},
			Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "a"}}}},
		{"three-cycle", &DAG{Stages: []string{"a", "b", "c"},
			Edges: []Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "a"}}}},
	}
	for _, tc := range cases {
		if err := tc.dag.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := diamond().Validate(); err != nil {
		t.Errorf("diamond rejected: %v", err)
	}
	if err := (&DAG{Stages: []string{"solo"}}).Validate(); err != nil {
		t.Errorf("single stage rejected: %v", err)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	// Independent stages come back in declaration order...
	fork := &DAG{Stages: []string{"c", "a", "b"}}
	order, err := fork.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("fork order %v", order)
	}
	// ...and precedence overrides declaration: join declared first still
	// sorts last.
	d := &DAG{
		Stages: []string{"join", "src", "left", "right"},
		Edges: []Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
	order, err = d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{1, 2, 3, 0}) {
		t.Errorf("diamond order %v", order)
	}
}

func TestChainAndIndex(t *testing.T) {
	c := Chain("a", "b", "c")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Edges) != 2 {
		t.Fatalf("chain edges %v", c.Edges)
	}
	if c.Index("b") != 1 || c.Index("missing") != -1 {
		t.Errorf("Index misbehaves: b=%d missing=%d", c.Index("b"), c.Index("missing"))
	}
}

func TestWavesAndConcurrency(t *testing.T) {
	waves, err := diamond().Waves()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(waves, []int{0, 1, 1, 2}) {
		t.Errorf("diamond waves %v", waves)
	}
	all := Concurrency(waves, func(i, j int) bool { return true })
	if !reflect.DeepEqual(all, []int{1, 2, 2, 1}) {
		t.Errorf("shared-cluster concurrency %v", all)
	}
	none := Concurrency(waves, func(i, j int) bool { return false })
	if !reflect.DeepEqual(none, []int{1, 1, 1, 1}) {
		t.Errorf("disjoint-cluster concurrency %v", none)
	}
}

func TestComputeScheduleChain(t *testing.T) {
	sc, err := Chain("a", "b", "c").ComputeSchedule([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Makespan != 60 {
		t.Errorf("makespan %v", sc.Makespan)
	}
	if !reflect.DeepEqual(sc.Start, []float64{0, 10, 30}) {
		t.Errorf("starts %v", sc.Start)
	}
	for i, s := range sc.Slack {
		if s != 0 || !sc.Critical[i] {
			t.Errorf("stage %d slack %v critical %v, want 0/true", i, s, sc.Critical[i])
		}
	}
	if !reflect.DeepEqual(sc.CriticalPath, []int{0, 1, 2}) {
		t.Errorf("critical path %v", sc.CriticalPath)
	}
}

func TestComputeScheduleDiamondSlack(t *testing.T) {
	// left takes 40, right 15: right has 25 slack and stays off the
	// critical path.
	sc, err := diamond().ComputeSchedule([]float64{10, 40, 15, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Makespan != 55 {
		t.Fatalf("makespan %v", sc.Makespan)
	}
	if sc.Slack[2] != 25 || sc.Critical[2] {
		t.Errorf("right slack %v critical %v, want 25/false", sc.Slack[2], sc.Critical[2])
	}
	if sc.Slack[1] != 0 || !sc.Critical[1] {
		t.Errorf("left slack %v, want critical", sc.Slack[1])
	}
	if !reflect.DeepEqual(sc.CriticalPath, []int{0, 1, 3}) {
		t.Errorf("critical path %v", sc.CriticalPath)
	}
	if sc.Start[3] != 50 {
		t.Errorf("join start %v, want 50", sc.Start[3])
	}
}

func TestComputeScheduleRejectsBadDurations(t *testing.T) {
	if _, err := Chain("a", "b").ComputeSchedule([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Chain("a", "b").ComputeSchedule([]float64{1, math.Inf(-1)}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestAdjacency(t *testing.T) {
	parents, children, err := diamond().Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parents[3], []int{1, 2}) {
		t.Errorf("join parents %v", parents[3])
	}
	if !reflect.DeepEqual(children[0], []int{1, 2}) {
		t.Errorf("src children %v", children[0])
	}
	var nilDAG *DAG
	if _, _, err := nilDAG.Adjacency(); err == nil {
		t.Error("nil DAG accepted")
	}
}
