// Package timeline implements the paper's timeline-construction procedure
// (Algorithm 1, §4.2.2): given per-task durations and the container capacity
// of the cluster, it places map tasks and the two reduce subtasks
// (shuffle-sort, merge) onto node/slot lanes, honoring
//
//   - map-before-reduce container priority,
//   - lowest-occupancy node selection,
//   - slow start (the shuffle of a reduce task may begin at the end of the
//     first map task) vs. late start (after the last map),
//   - remote-shuffle inflation: a reduce task's shuffle grows by sd/|R| for
//     every map on a different node, and
//   - the physical constraint that a shuffle cannot end before the last map
//     output exists.
//
// The resulting Timeline is the input for precedence-tree construction and
// for the overlap factors of the MVA step.
package timeline

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Class is a model task class (C = 3 in the paper, §4.1).
type Class int

// The three task classes, plus ClassStage for cross-job composition.
const (
	ClassMap Class = iota
	ClassShuffleSort
	ClassMerge
	// ClassStage labels a whole job stage as one placed interval in a
	// workflow-level timeline: the cross-job generalization where a leaf is
	// an entire job rather than one of its tasks (internal/workflow).
	ClassStage
)

func (c Class) String() string {
	switch c {
	case ClassMap:
		return "map"
	case ClassShuffleSort:
		return "shuffle-sort"
	case ClassStage:
		return "stage"
	default:
		return "merge"
	}
}

// MapTask is a map task to place.
type MapTask struct {
	ID int
	// Duration is the task's current response-time estimate.
	Duration float64
	// ShuffleDuration (sd in Algorithm 1) is the time to move this map's
	// output to the reducers; it inflates remote reducers' shuffles.
	ShuffleDuration float64
}

// ReduceTask is a reduce task to place; the timeline splits it into a
// shuffle-sort and a merge subtask.
type ReduceTask struct {
	ID int
	// ShuffleSortBase is the node-local part of the shuffle-sort subtask
	// (CPU + disk + already-local copies); remote map shares are added by
	// Algorithm 1.
	ShuffleSortBase float64
	// MergeDuration is the final-sort + reduce + write subtask.
	MergeDuration float64
}

// Input configures one timeline construction.
type Input struct {
	NumNodes           int
	MapSlotsPerNode    int // pMaxMapsPerNode (uniform clusters)
	ReduceSlotsPerNode int // pMaxReducePerNode (uniform clusters)
	// MapSlotsByNode / ReduceSlotsByNode give per-node lane counts for
	// heterogeneous clusters. When non-nil they override the scalar fields
	// and must hold one positive entry per node.
	MapSlotsByNode    []int
	ReduceSlotsByNode []int
	// MapDurationScaleByNode / ReduceDurationScaleByNode scale task
	// durations by the hosting node's relative slowness (heterogeneous
	// clusters): a map placed on node n occupies its lane for
	// Duration×MapDurationScaleByNode[n], so faster nodes free their
	// containers sooner and greedily absorb more tasks — the placement
	// feedback a real YARN cluster exhibits. Remote-shuffle contributions
	// travel the shared network and are not scaled. nil means uniform
	// hardware (scale 1 everywhere).
	MapDurationScaleByNode    []float64
	ReduceDurationScaleByNode []float64
	Maps                      []MapTask
	Reduces                   []ReduceTask
	// SlowStart selects the border rule: true = shuffles may start at the end
	// of the first map; false = after the last map.
	SlowStart bool
}

// validateSlots checks one container pool's configuration: a positive
// uniform per-node count, or a full per-node vector of positive counts. A
// non-positive count would silently build an empty (or short) lane pool, and
// placement over a starved pool hangs or misprices the timeline — so it is
// rejected here rather than tolerated downstream.
func validateSlots(pool string, nodes, perNode int, byNode []int) error {
	if byNode == nil {
		if perNode <= 0 {
			return fmt.Errorf("timeline: %sSlotsPerNode must be positive", pool)
		}
		return nil
	}
	if len(byNode) != nodes {
		return fmt.Errorf("timeline: %sSlotsByNode has %d entries, want %d (one per node)", pool, len(byNode), nodes)
	}
	for n, c := range byNode {
		if c <= 0 {
			return fmt.Errorf("timeline: %sSlotsByNode[%d] must be positive (got %d)", pool, n, c)
		}
	}
	return nil
}

// validateScales checks a per-node duration-scale vector: nil, or one
// positive finite factor per node.
func validateScales(pool string, nodes int, scales []float64) error {
	if scales == nil {
		return nil
	}
	if len(scales) != nodes {
		return fmt.Errorf("timeline: %sDurationScaleByNode has %d entries, want %d (one per node)", pool, len(scales), nodes)
	}
	for n, s := range scales {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("timeline: %sDurationScaleByNode[%d] must be positive and finite (got %g)", pool, n, s)
		}
	}
	return nil
}

// checkIDs rejects a negative or repeated task ID among n tasks of one
// kind: a placed task is named by its class and ID, so downstream lookups
// (the model's per-class response tables) need them unique. Increasing IDs,
// the usual numbering, are checked without allocating.
func checkIDs(kind string, n int, id func(int) int) error {
	increasing := true
	for k := 0; k < n; k++ {
		if id(k) < 0 {
			return fmt.Errorf("timeline: %s ID %d is negative", kind, id(k))
		}
		if k > 0 && id(k) <= id(k-1) {
			increasing = false
		}
	}
	if increasing {
		return nil
	}
	seen := make(map[int]bool, n)
	for k := 0; k < n; k++ {
		if seen[id(k)] {
			return fmt.Errorf("timeline: duplicate %s ID %d", kind, id(k))
		}
		seen[id(k)] = true
	}
	return nil
}

// finiteNonNegative reports whether x is a usable duration: not negative,
// not +Inf and not NaN.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate reports configuration errors.
func (in Input) Validate() error {
	if in.NumNodes <= 0 {
		return errors.New("timeline: NumNodes must be positive")
	}
	if err := validateSlots("Map", in.NumNodes, in.MapSlotsPerNode, in.MapSlotsByNode); err != nil {
		return err
	}
	if err := validateSlots("Reduce", in.NumNodes, in.ReduceSlotsPerNode, in.ReduceSlotsByNode); err != nil {
		return err
	}
	if err := validateScales("Map", in.NumNodes, in.MapDurationScaleByNode); err != nil {
		return err
	}
	if err := validateScales("Reduce", in.NumNodes, in.ReduceDurationScaleByNode); err != nil {
		return err
	}
	if len(in.Maps) == 0 {
		return errors.New("timeline: need at least one map task")
	}
	if err := checkIDs("map", len(in.Maps), func(k int) int { return in.Maps[k].ID }); err != nil {
		return err
	}
	if err := checkIDs("reduce", len(in.Reduces), func(k int) int { return in.Reduces[k].ID }); err != nil {
		return err
	}
	// NaN fails every comparison, so each bound is written to reject it.
	for _, m := range in.Maps {
		if !(m.Duration > 0) || math.IsInf(m.Duration, 1) {
			return fmt.Errorf("timeline: map %d duration must be positive and finite (got %g)", m.ID, m.Duration)
		}
		if !finiteNonNegative(m.ShuffleDuration) {
			return fmt.Errorf("timeline: map %d shuffle duration must be non-negative and finite (got %g)", m.ID, m.ShuffleDuration)
		}
	}
	for _, r := range in.Reduces {
		if !finiteNonNegative(r.ShuffleSortBase) || !finiteNonNegative(r.MergeDuration) {
			return fmt.Errorf("timeline: reduce %d durations must be non-negative and finite (got %g, %g)", r.ID, r.ShuffleSortBase, r.MergeDuration)
		}
		if r.ShuffleSortBase+r.MergeDuration <= 0 {
			return fmt.Errorf("timeline: reduce %d has zero total duration", r.ID)
		}
	}
	return nil
}

// Placed is one task laid onto the timeline.
type Placed struct {
	Class Class
	ID    int
	Node  int
	Slot  int // lane within the node's map or reduce container pool
	// Lane is the task's lane in its pool's lane-major order (lane 0 of
	// every node, then lane 1, ...): a dense ID, unique per pool, that
	// names the same (Node, Slot) pair in every timeline of one cluster.
	Lane  int
	Start float64
	End   float64
}

// Duration returns End-Start.
func (p Placed) Duration() float64 { return p.End - p.Start }

// Overlap returns the length of the intersection of two placed tasks'
// execution intervals.
func Overlap(a, b Placed) float64 {
	lo := math.Max(a.Start, b.Start)
	hi := math.Min(a.End, b.End)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Timeline is the constructed placement.
type Timeline struct {
	Tasks    []Placed
	Makespan float64
	// Border is the reduce-schedulability border chosen by the slow-start rule.
	Border float64
	// LastMapEnd is the completion time of the final map task.
	LastMapEnd float64
}

// slot is one container lane on a node.
type slot struct {
	node, lane int
	free       float64
}

// tieEps is the tolerance under which two lanes free at the same time and
// the occupancy tie-break decides.
const tieEps = 1e-12

// slotPool is one container pool: its lanes in lane-major order (lane 0 of
// every node, then lane 1, ...) plus per-node occupancy for the paper's
// lowest-occupancy-rate placement rule.
//
// Lanes are stored lazily, in that order. After reset every lane frees at
// exactly 0. While every lane touched so far frees later than tieEps, the
// earliest-free scan can never prefer a touched lane to an untouched one,
// and among the untouched lanes its (occupancy, node) tie-break picks
// exactly the next lane in lane-major order, because a node's occupancy is
// then its count of touched lanes. So the first wave is handed out in O(1)
// per task and only the lanes it uses are stored. A touched lane freeing
// at or before tieEps (or at NaN) trips the guard: the remaining lanes are
// stored and the scan runs for the rest of the Build, as it does once
// every lane is touched.
type slotPool struct {
	slots    []slot // stored lanes: a prefix of the lane-major order
	assigned []int  // per node
	byNode   []int  // per-node lane counts; nil when uniform
	total    int    // lanes in the pool
	// nextLane, nextNode is the lane-major position the next stored lane is
	// searched from.
	nextLane, nextNode int
}

// Builder runs Algorithm 1 with scratch it keeps between calls: both lane
// pools, their per-node occupancy and the map→node table. Only the returned
// Timeline and its Tasks are allocated per Build once the scratch has grown
// to the input's shape. The zero Builder is ready to use; a Builder is not
// safe for concurrent use.
//
// Placement is O(1) per task while a pool's first wave lasts (see
// slotPool) and a scan over the pool's lanes after it, so a Build over a
// large cluster with few tasks never touches the lanes it does not use.
type Builder struct {
	mapSlots, redSlots slotPool
	nodeOfMap          []int // node of in.Maps[k], by position
}

// Build runs Algorithm 1 with a fresh Builder.
func Build(in Input) (*Timeline, error) {
	var b Builder
	return b.Build(in)
}

// Build runs Algorithm 1 and splits each reduce into its shuffle-sort and
// merge subtasks. The returned Timeline shares no memory with the Builder.
func (b *Builder) Build(in Input) (*Timeline, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tl := &Timeline{Tasks: make([]Placed, 0, len(in.Maps)+2*len(in.Reduces))}

	// Map container lanes (priority 20: placed first).
	mapSlots := &b.mapSlots
	mapSlots.reset(in.NumNodes, in.MapSlotsPerNode, in.MapSlotsByNode)
	if cap(b.nodeOfMap) < len(in.Maps) {
		b.nodeOfMap = make([]int, len(in.Maps))
	}
	nodeOfMap := b.nodeOfMap[:len(in.Maps)]
	firstMapEnd := math.Inf(1)
	scaleOn := func(scales []float64, node int) float64 {
		if scales == nil {
			return 1
		}
		return scales[node]
	}
	for k, m := range in.Maps {
		i := mapSlots.earliest()
		s := mapSlots.slots[i]
		start := s.free
		end := start + m.Duration*scaleOn(in.MapDurationScaleByNode, s.node)
		mapSlots.setFree(i, end)
		nodeOfMap[k] = s.node
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassMap, ID: m.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: end,
		})
		if end < firstMapEnd {
			firstMapEnd = end
		}
		if end > tl.LastMapEnd {
			tl.LastMapEnd = end
		}
	}

	// Border (lines 7-11): slow start = end of the first map; otherwise the
	// end of the last map.
	if in.SlowStart {
		tl.Border = firstMapEnd
	} else {
		tl.Border = tl.LastMapEnd
	}

	// Reduce container lanes (priority 10: placed after all maps).
	redSlots := &b.redSlots
	redSlots.reset(in.NumNodes, in.ReduceSlotsPerNode, in.ReduceSlotsByNode)
	nR := len(in.Reduces)
	for _, r := range in.Reduces {
		i := redSlots.earliest()
		s := redSlots.slots[i]
		start := math.Max(s.free, tl.Border)
		redScale := scaleOn(in.ReduceDurationScaleByNode, s.node)
		// Remote-shuffle inflation (lines 14-18): every map on a different
		// node contributes sd/|R|. The node-local base scales with the
		// hosting node; the remote shares ride the shared network and do not.
		ssDur := r.ShuffleSortBase * redScale
		for k, m := range in.Maps {
			if nodeOfMap[k] != s.node {
				ssDur += m.ShuffleDuration / float64(nR)
			}
		}
		ssEnd := start + ssDur
		// A shuffle cannot complete before the last map output exists.
		if ssEnd < tl.LastMapEnd {
			ssEnd = tl.LastMapEnd
		}
		mergeEnd := ssEnd + r.MergeDuration*redScale
		redSlots.setFree(i, mergeEnd)
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassShuffleSort, ID: r.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: ssEnd,
		})
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassMerge, ID: r.ID, Node: s.node, Slot: s.lane, Lane: i, Start: ssEnd, End: mergeEnd,
		})
	}

	for _, t := range tl.Tasks {
		if t.End > tl.Makespan {
			tl.Makespan = t.End
		}
	}
	// (Start, Class, ID) is a total order — IDs are unique per class — so
	// the sorted order does not depend on the sort algorithm.
	slices.SortFunc(tl.Tasks, func(a, b Placed) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Class, b.Class), cmp.Compare(a.ID, b.ID))
	})
	return tl, nil
}

// reset empties the lane pool in O(nodes): perNode lanes on every node, or
// byNode[n] lanes on node n when a per-node vector is given, all free at 0
// with no occupancy. No lane is stored until earliest hands it out.
func (p *slotPool) reset(nodes, perNode int, byNode []int) {
	if cap(p.assigned) < nodes {
		p.assigned = make([]int, nodes)
	}
	p.assigned = p.assigned[:nodes]
	clear(p.assigned)
	p.byNode = byNode
	p.total = nodes * perNode
	if byNode != nil {
		p.total = 0
		for _, c := range byNode {
			p.total += c
		}
	}
	p.slots = p.slots[:0]
	p.nextLane, p.nextNode = 0, 0
}

// grow stores the next lane in lane-major order. For a uniform vector the
// order is the homogeneous layout, so placement, and therefore
// predictions, stay bit-for-bit reproducible. The caller guarantees an
// unstored lane remains.
func (p *slotPool) grow() {
	for {
		n, lane := p.nextNode, p.nextLane
		if p.nextNode++; p.nextNode == len(p.assigned) {
			p.nextLane, p.nextNode = p.nextLane+1, 0
		}
		if p.byNode == nil || lane < p.byNode[n] {
			p.slots = append(p.slots, slot{node: n, lane: lane})
			return
		}
	}
}

// setFree records that lane i next frees at t. A time not later than
// tieEps trips the first-wave guard: every remaining lane is stored, so
// earliest scans from then on.
func (p *slotPool) setFree(i int, t float64) {
	p.slots[i].free = t
	if !(t > tieEps) {
		for len(p.slots) < p.total {
			p.grow()
		}
	}
}

// earliest returns the index of the lane that frees first; ties go to the
// node with the lowest occupancy (the paper's "assign containers to the
// nodes with the lowest occupancy rate"), then the lower node ID. While
// unstored lanes remain that is the next lane in lane-major order (see
// slotPool); otherwise every lane is scanned.
func (p *slotPool) earliest() int {
	best := 0
	if len(p.slots) < p.total {
		p.grow()
		best = len(p.slots) - 1
	} else {
		for i := 1; i < len(p.slots); i++ {
			s, b := &p.slots[i], &p.slots[best]
			switch {
			case s.free < b.free-tieEps:
				best = i
			case math.Abs(s.free-b.free) <= tieEps:
				if p.assigned[s.node] < p.assigned[b.node] ||
					(p.assigned[s.node] == p.assigned[b.node] && s.node < b.node) {
					best = i
				}
			}
		}
	}
	p.assigned[p.slots[best].node]++
	return best
}
