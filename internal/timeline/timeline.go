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
	for _, m := range in.Maps {
		if m.Duration <= 0 {
			return fmt.Errorf("timeline: map %d has non-positive duration", m.ID)
		}
		if m.ShuffleDuration < 0 {
			return fmt.Errorf("timeline: map %d has negative shuffle duration", m.ID)
		}
	}
	for _, r := range in.Reduces {
		if r.ShuffleSortBase < 0 || r.MergeDuration < 0 {
			return fmt.Errorf("timeline: reduce %d has negative durations", r.ID)
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

// slotPool tracks lanes plus per-node occupancy for the paper's
// lowest-occupancy-rate placement rule.
type slotPool struct {
	slots    []slot
	assigned []int // per node
}

// Builder runs Algorithm 1 with scratch it keeps between calls: both lane
// pools, their per-node occupancy and the map→node table. Only the returned
// Timeline and its Tasks are allocated per Build once the scratch has grown
// to the input's shape. The zero Builder is ready to use; a Builder is not
// safe for concurrent use.
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
		s := mapSlots.earliest()
		start := s.free
		end := start + m.Duration*scaleOn(in.MapDurationScaleByNode, s.node)
		s.free = end
		nodeOfMap[k] = s.node
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassMap, ID: m.ID, Node: s.node, Slot: s.lane, Start: start, End: end,
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
		s := redSlots.earliest()
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
		s.free = mergeEnd
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassShuffleSort, ID: r.ID, Node: s.node, Slot: s.lane, Start: start, End: ssEnd,
		})
		tl.Tasks = append(tl.Tasks, Placed{
			Class: ClassMerge, ID: r.ID, Node: s.node, Slot: s.lane, Start: ssEnd, End: mergeEnd,
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

// reset rebuilds the lane pool in place: perNode lanes on every node, or
// byNode[n] lanes on node n when a per-node vector is given, all free at 0
// with no occupancy. Lanes are interleaved lane-major (lane 0 of every
// node, then lane 1, ...) so that for a uniform vector the pool is
// identical to the homogeneous layout — placement, and therefore
// predictions, stay bit-for-bit reproducible.
func (p *slotPool) reset(nodes, perNode int, byNode []int) {
	if cap(p.assigned) < nodes {
		p.assigned = make([]int, nodes)
	}
	p.assigned = p.assigned[:nodes]
	clear(p.assigned)
	maxLanes := perNode
	if byNode != nil {
		maxLanes = 0
		for _, c := range byNode {
			if c > maxLanes {
				maxLanes = c
			}
		}
	}
	p.slots = p.slots[:0]
	for lane := 0; lane < maxLanes; lane++ {
		for n := 0; n < nodes; n++ {
			lanes := perNode
			if byNode != nil {
				lanes = byNode[n]
			}
			if lane < lanes {
				p.slots = append(p.slots, slot{node: n, lane: lane})
			}
		}
	}
}

// earliest picks the slot that frees first; ties go to the node with the
// lowest occupancy (the paper's "assign containers to the nodes with the
// lowest occupancy rate"), then the lower node ID.
func (p *slotPool) earliest() *slot {
	const eps = 1e-12
	best := &p.slots[0]
	for i := range p.slots[1:] {
		s := &p.slots[i+1]
		switch {
		case s.free < best.free-eps:
			best = s
		case math.Abs(s.free-best.free) <= eps:
			if p.assigned[s.node] < p.assigned[best.node] ||
				(p.assigned[s.node] == p.assigned[best.node] && s.node < best.node) {
				best = s
			}
		}
	}
	p.assigned[best.node]++
	return best
}
