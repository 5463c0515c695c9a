package ptree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hadoop2perf/internal/timeline"
)

// MaxPDepth returns the deepest chain of nested P operators, the quantity
// the paper links to estimation error.
func (n *Node) MaxPDepth() int {
	if n == nil || n.Op == Leaf {
		return 0
	}
	l, r := n.Left.MaxPDepth(), n.Right.MaxPDepth()
	d := l
	if r > d {
		d = r
	}
	if n.Op == P {
		d++
	}
	return d
}

// Walk visits nodes pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Left.Walk(fn)
	n.Right.Walk(fn)
}

// Validate checks structural invariants: leaves have tasks and no children;
// internal nodes have exactly two children and no task.
func (n *Node) Validate() error {
	if n == nil {
		return errors.New("ptree: nil node")
	}
	if n.Op == Leaf {
		if n.Task == nil {
			return errors.New("ptree: leaf without task")
		}
		if n.Left != nil || n.Right != nil {
			return errors.New("ptree: leaf with children")
		}
		return nil
	}
	if n.Task != nil {
		return fmt.Errorf("ptree: %s node with task", n.Op)
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("ptree: %s node missing a child", n.Op)
	}
	if err := n.Left.Validate(); err != nil {
		return err
	}
	return n.Right.Validate()
}

func buildTL(t *testing.T, in timeline.Input) *timeline.Timeline {
	t.Helper()
	tl, err := timeline.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func runningExample(t *testing.T) *timeline.Timeline {
	in := timeline.Input{
		NumNodes: 3, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Reduces: []timeline.ReduceTask{{ID: 0, ShuffleSortBase: 6, MergeDuration: 5}},
	}
	for i := 0; i < 4; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 10, ShuffleDuration: 2})
	}
	return buildTL(t, in)
}

func TestBuildRunningExample(t *testing.T) {
	tree, err := Build(runningExample(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper Figure 7 structure: first wave of maps parallel, then the fourth
	// map parallel with the shuffle, then the merge — three serial groups.
	want := "S(S(P(m0,P(m1,m2)),P(m3,s0)),g0)"
	if got := tree.String(); got != want {
		t.Errorf("tree = %s, want %s", got, want)
	}
	if tree.NumLeaves() != 6 {
		t.Errorf("leaves = %d, want 6", tree.NumLeaves())
	}
}

func TestBuildEmptyTimeline(t *testing.T) {
	if _, err := Build(&timeline.Timeline{}); err == nil {
		t.Error("empty timeline accepted")
	}
	if _, err := Build(nil); err == nil {
		t.Error("nil timeline accepted")
	}
}

func TestSingleTask(t *testing.T) {
	in := timeline.Input{
		NumNodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Maps: []timeline.MapTask{{ID: 0, Duration: 10}},
	}
	tree, err := Build(buildTL(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Op != Leaf || tree.Task == nil {
		t.Errorf("single-task tree = %s", tree)
	}
	if tree.Depth() != 0 || tree.NumLeaves() != 1 || tree.MaxPDepth() != 0 {
		t.Error("single-leaf metrics wrong")
	}
}

func TestSequentialTasksUseS(t *testing.T) {
	// One slot: two maps serialize -> S(m0,m1).
	in := timeline.Input{
		NumNodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Maps: []timeline.MapTask{{ID: 0, Duration: 10}, {ID: 1, Duration: 10}},
	}
	tree, err := Build(buildTL(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.String(); got != "S(m0,m1)" {
		t.Errorf("tree = %s", got)
	}
	if tree.MaxPDepth() != 0 {
		t.Errorf("pure-S tree has P depth %d", tree.MaxPDepth())
	}
}

func TestParallelTasksUseP(t *testing.T) {
	in := timeline.Input{
		NumNodes: 4, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
		Maps: []timeline.MapTask{
			{ID: 0, Duration: 10}, {ID: 1, Duration: 10},
			{ID: 2, Duration: 10}, {ID: 3, Duration: 10},
		},
	}
	tree, err := Build(buildTL(t, in))
	if err != nil {
		t.Fatal(err)
	}
	// Balanced binary P over 4 leaves: depth 2.
	if tree.Depth() != 2 {
		t.Errorf("depth = %d, want 2 (balanced)", tree.Depth())
	}
	nP := 0
	tree.Walk(func(n *Node) {
		if n.Op == P {
			nP++
		}
		if n.Op == S {
			t.Error("unexpected S in fully parallel tree")
		}
	})
	if nP != 3 {
		t.Errorf("%d P nodes, want 3", nP)
	}
}

func TestBalancedDepthBound(t *testing.T) {
	// 16 parallel tasks: balanced depth must be exactly 4.
	in := timeline.Input{
		NumNodes: 16, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SlowStart: true,
	}
	for i := 0; i < 16; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 10})
	}
	tree, err := Build(buildTL(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 4 {
		t.Errorf("depth = %d, want 4", tree.Depth())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	task := timeline.Placed{Class: timeline.ClassMap, ID: 0, Start: 0, End: 1}
	good := &Node{Op: Leaf, Task: &task}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Node{
		{Op: Leaf},          // leaf without task
		{Op: S, Left: good}, // missing right child
		{Op: P, Left: good, Right: good, Task: &task}, // internal with task
		{Op: Leaf, Task: &task, Left: good},           // leaf with child
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad tree %d validated", i)
		}
	}
	var nilNode *Node
	if err := nilNode.Validate(); err == nil {
		t.Error("nil tree validated")
	}
}

func TestOpString(t *testing.T) {
	if Leaf.String() != "leaf" || S.String() != "S" || P.String() != "P" {
		t.Error("op strings wrong")
	}
}

// Property: for any generated timeline, the tree has one leaf per placed
// task, validates, and its depth is bounded by groups + log2 of the largest
// group.
func TestTreeInvariantsProperty(t *testing.T) {
	f := func(nMapsQ, nRedQ, nodesQ uint8, slow bool) bool {
		nMaps := int(nMapsQ)%20 + 1
		nRed := int(nRedQ) % 4
		nodes := int(nodesQ)%5 + 1
		in := timeline.Input{
			NumNodes: nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, SlowStart: slow,
		}
		for i := 0; i < nMaps; i++ {
			in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 4 + float64(i%5), ShuffleDuration: 1})
		}
		for i := 0; i < nRed; i++ {
			in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: i, ShuffleSortBase: 2, MergeDuration: 3})
		}
		tl, err := timeline.Build(in)
		if err != nil {
			return false
		}
		tree, err := Build(tl)
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		if tree.NumLeaves() != len(tl.Tasks) {
			return false
		}
		// Depth bound: S-chain length + ceil(log2(largest P group)).
		n := len(tl.Tasks)
		bound := n + int(math.Ceil(math.Log2(float64(n+1)))) + 1
		return tree.Depth() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every leaf's task appears exactly once.
func TestLeafUniquenessProperty(t *testing.T) {
	f := func(nMapsQ uint8) bool {
		nMaps := int(nMapsQ)%16 + 1
		in := timeline.Input{
			NumNodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, SlowStart: true,
		}
		for i := 0; i < nMaps; i++ {
			in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 3 + float64(i%2)})
		}
		tl, err := timeline.Build(in)
		if err != nil {
			return false
		}
		tree, err := Build(tl)
		if err != nil {
			return false
		}
		seen := map[int]int{}
		tree.Walk(func(n *Node) {
			if n.Op == Leaf {
				seen[n.Task.ID]++
			}
		})
		if len(seen) != nMaps {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A build allocates the sorted task copy and the node slab, nothing else.
func TestBuildAllocBudget(t *testing.T) {
	in := timeline.Input{NumNodes: 8, MapSlotsPerNode: 8, ReduceSlotsPerNode: 4, SlowStart: true}
	for i := 0; i < 160; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 30 + float64(i%7), ShuffleDuration: 1})
	}
	for i := 0; i < 8; i++ {
		in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: i, ShuffleSortBase: 10, MergeDuration: 50})
	}
	tl := buildTL(t, in)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(tl); err != nil {
			t.Error(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Build allocated %.0f, budget 2", allocs)
	}
}

// leaves lists a tree's leaf tasks left to right.
func leaves(n *Node) []timeline.Placed {
	var out []timeline.Placed
	n.Walk(func(n *Node) {
		if n.Op == Leaf {
			out = append(out, *n.Task)
		}
	})
	return out
}

// sameTree reports how got differs from want: shape, and every leaf's task
// with its times compared by their bits.
func sameTree(got, want *Node) error {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("tree %s, want %s", g, w)
	}
	gl, wl := leaves(got), leaves(want)
	for i := range wl {
		g, w := gl[i], wl[i]
		if g.Class != w.Class || g.ID != w.ID || g.Node != w.Node || g.Lane != w.Lane ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Errorf("leaf %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// randomTimeline draws n tasks whose times come from a small grid, so many
// tasks tie in (Start, End) and the unstable sort's choices matter.
func randomTimeline(rng *rand.Rand, n int) *timeline.Timeline {
	tl := &timeline.Timeline{}
	for i := 0; i < n; i++ {
		start := float64(rng.Intn(6)) * 10
		tl.Tasks = append(tl.Tasks, timeline.Placed{
			Class: timeline.Class(rng.Intn(3)), ID: i, Node: rng.Intn(4), Lane: rng.Intn(8),
			Start: start, End: start + float64(1+rng.Intn(3))*10,
		})
	}
	return tl
}

// retime moves a timeline's times the way a model round does: every time
// scaled by one factor (which keeps the order and the ties), one task
// nudged, or nothing changed.
func retime(rng *rand.Rand, tl *timeline.Timeline) {
	switch rng.Intn(3) {
	case 0:
		f := 0.5 + rng.Float64()
		for i := range tl.Tasks {
			tl.Tasks[i].Start *= f
			tl.Tasks[i].End *= f
		}
	case 1:
		t := &tl.Tasks[rng.Intn(len(tl.Tasks))]
		t.End += float64(rng.Intn(3)) * 5
	}
}

// The Builder's trees are Build's, leaf for leaf: built from scratch, and
// refreshed over rounds of moved times, whether the last tree is reused or
// not. The rounds reach both.
func TestBuilderMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Builder
	var reused, rebuilt int
	for trial := 0; trial < 400; trial++ {
		tl := randomTimeline(rng, 1+rng.Intn(60))
		for round := 0; round < 5; round++ {
			want, err := Build(tl)
			if err != nil {
				t.Fatal(err)
			}
			var got *Node
			if round == 0 {
				got, err = b.Build(tl)
			} else {
				var ok bool
				got, ok, err = b.Refresh(tl)
				if ok {
					reused++
				} else {
					rebuilt++
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			retime(rng, tl)
		}
	}
	if reused < 300 || rebuilt < 100 {
		t.Errorf("%d refreshes reused the tree and %d rebuilt it; the rounds do not reach both", reused, rebuilt)
	}
}

// A warmed Builder allocates nothing, reused tree or not; a snapshot shares
// no memory with the Builder's tree.
func TestBuilderAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tl := randomTimeline(rng, 40)
	var b Builder
	tree, err := b.Build(tl)
	if err != nil {
		t.Fatal(err)
	}
	keep := b.Snapshot()
	if err := sameTree(keep, tree); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		retime(rng, tl)
		if _, _, err := b.Refresh(tl); err != nil {
			t.Error(err)
		}
		if _, err := b.Build(tl); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Builder allocated %.0f per round", allocs)
	}
	want, err := Build(tl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(keep, want); err == nil {
		t.Error("the snapshot follows the Builder's later rounds")
	}
}
