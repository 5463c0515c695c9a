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
	if err := in.validateScales(); err != nil {
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
	return in.validateDurations()
}

// validateScales checks both per-node duration-scale vectors.
func (in *Input) validateScales() error {
	if err := validateScales("Map", in.NumNodes, in.MapDurationScaleByNode); err != nil {
		return err
	}
	return validateScales("Reduce", in.NumNodes, in.ReduceDurationScaleByNode)
}

// validateDurations checks every task's durations.
func (in *Input) validateDurations() error {
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
//
// A stored lane keeps its node and lane across rewind, which starts a build
// of the same layout: only the first stored lanes are in use, and the rest
// are handed out again, in the same order, without being laid out anew.
type slotPool struct {
	slots    []slot // laid-out lanes: a prefix of the lane-major order
	stored   int    // lanes of slots in use by the current build
	assigned []int  // per node
	byNode   []int  // per-node lane counts; nil when uniform
	total    int    // lanes in the pool
	// nextLane, nextNode is the lane-major position the next laid-out lane
	// is searched from.
	nextLane, nextNode int
}

// Builder runs Algorithm 1 with scratch it keeps between calls: both lane
// pools, their per-node occupancy, the map→node table and the last build's
// placement. The zero Builder is ready to use; a Builder is not safe for
// concurrent use.
//
// Placement is O(1) per task while a pool's first wave lasts (see
// slotPool) and a scan over the pool's lanes after it, so a Build over a
// large cluster with few tasks never touches the lanes it does not use.
//
// Every build records its input's shape (node count, lane layout, task
// counts and IDs), each task's lane and the sorted order. Retime builds an
// input of the recorded shape without revalidating or laying out that
// shape again, and keeps the recorded order when the new times still sort
// in it; its placements are made by the same code as Build's, so its
// timeline is Build's bit for bit.
type Builder struct {
	mapSlots, redSlots slotPool
	nodeOfMap          []int // node of in.Maps[k], by position

	// placed holds the last build's tasks in placement order: the maps,
	// then each reduce's shuffle-sort and merge. order is the placed index
	// of each task in the timeline's (Start, Class, ID) order.
	placed []Placed
	order  []int32
	// The recorded shape; the task IDs are those of placed.
	built          bool
	nodes, maps    int
	mapPer, redPer int
	mapBy, redBy   []int
}

// Build runs Algorithm 1 with a fresh Builder.
func Build(in Input) (*Timeline, error) {
	var b Builder
	return b.Build(in)
}

// Build runs Algorithm 1 and splits each reduce into its shuffle-sort and
// merge subtasks. The returned Timeline shares no memory with the Builder;
// it and its Tasks are the only allocations once the Builder's scratch has
// grown to the input's shape.
func (b *Builder) Build(in Input) (*Timeline, error) {
	tl := &Timeline{}
	if err := b.BuildInto(in, tl); err != nil {
		return nil, err
	}
	return tl, nil
}

// BuildInto is Build writing into dst, whose Tasks it reuses when their
// capacity suffices; on an error dst is left as it was.
func (b *Builder) BuildInto(in Input, dst *Timeline) error {
	if err := in.Validate(); err != nil {
		return err
	}
	b.mapSlots.reset(in.NumNodes, in.MapSlotsPerNode, in.MapSlotsByNode)
	b.redSlots.reset(in.NumNodes, in.ReduceSlotsPerNode, in.ReduceSlotsByNode)
	b.place(&in, dst)
	b.order = resize(b.order, len(b.placed))
	for i := range b.order {
		b.order[i] = int32(i)
	}
	b.sortOrder()
	b.write(dst)
	b.built = true
	b.nodes, b.maps, b.mapPer, b.redPer = in.NumNodes, len(in.Maps), in.MapSlotsPerNode, in.ReduceSlotsPerNode
	b.mapBy = recordLanes(b.mapBy, in.MapSlotsByNode)
	b.redBy = recordLanes(b.redBy, in.ReduceSlotsByNode)
	return nil
}

// Retime is BuildInto for a round whose durations moved but whose shape
// may not have: when in has the shape of the Builder's last build, the
// shape's validation and lane layout are skipped and the last sorted order
// is kept if the new times still sort in it. repeated reports that every
// task kept its lane and its place in the order, so the timeline differs
// from the last one only in its times. Any other input is built in full.
func (b *Builder) Retime(in Input, dst *Timeline) (repeated bool, err error) {
	if !b.sameShape(&in) {
		return false, b.BuildInto(in, dst)
	}
	// The recorded shape passed Validate, so only the times can fail, and
	// Validate checks them in this order.
	if err := in.validateScales(); err != nil {
		return false, err
	}
	if err := in.validateDurations(); err != nil {
		return false, err
	}
	b.mapSlots.rewind(in.MapSlotsByNode)
	b.redSlots.rewind(in.ReduceSlotsByNode)
	repeated = b.place(&in, dst)
	if !slices.IsSortedFunc(b.order, b.compare) {
		b.sortOrder()
		repeated = false
	}
	b.write(dst)
	return repeated, nil
}

// sameShape reports whether in has the shape of the last build: the node
// count, the lane layout of both pools, the task counts and the task IDs.
func (b *Builder) sameShape(in *Input) bool {
	m := len(in.Maps)
	if !b.built || in.NumNodes != b.nodes || m != b.maps || m+2*len(in.Reduces) != len(b.placed) ||
		!sameLanes(in.MapSlotsPerNode, in.MapSlotsByNode, b.mapPer, b.mapBy) ||
		!sameLanes(in.ReduceSlotsPerNode, in.ReduceSlotsByNode, b.redPer, b.redBy) {
		return false
	}
	for k := range in.Maps {
		if in.Maps[k].ID != b.placed[k].ID {
			return false
		}
	}
	for r := range in.Reduces {
		if in.Reduces[r].ID != b.placed[m+2*r].ID {
			return false
		}
	}
	return true
}

// recordLanes copies a per-node lane vector into buf, keeping nil as nil.
func recordLanes(buf, byNode []int) []int {
	if byNode == nil {
		return nil
	}
	return append(buf[:0], byNode...)
}

// sameLanes compares a pool's lane configuration with a recorded one.
func sameLanes(perNode int, byNode []int, recPer int, recBy []int) bool {
	if (byNode == nil) != (recBy == nil) {
		return false
	}
	return slices.Equal(byNode, recBy) && (byNode != nil || perNode == recPer)
}

// place lays the tasks out into b.placed in placement order and sets dst's
// Border, LastMapEnd and Makespan. The pools must be reset or rewound. It
// reports whether every task landed in the lane b.placed held for it.
func (b *Builder) place(in *Input, dst *Timeline) (kept bool) {
	n := len(in.Maps) + 2*len(in.Reduces)
	kept = len(b.placed) == n
	b.placed = resize(b.placed, n)
	put := func(u int, t Placed) {
		if t.Lane != b.placed[u].Lane {
			kept = false
		}
		b.placed[u] = t
	}
	var lastMapEnd, makespan float64

	// Map container lanes (priority 20: placed first).
	mapSlots := &b.mapSlots
	b.nodeOfMap = resize(b.nodeOfMap, len(in.Maps))
	nodeOfMap := b.nodeOfMap
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
		put(k, Placed{Class: ClassMap, ID: m.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: end})
		if end < firstMapEnd {
			firstMapEnd = end
		}
		if end > lastMapEnd {
			lastMapEnd = end
		}
	}

	// Border (lines 7-11): slow start = end of the first map; otherwise the
	// end of the last map.
	border := lastMapEnd
	if in.SlowStart {
		border = firstMapEnd
	}

	// Reduce container lanes (priority 10: placed after all maps).
	redSlots := &b.redSlots
	nR := len(in.Reduces)
	for r, rt := range in.Reduces {
		i := redSlots.earliest()
		s := redSlots.slots[i]
		start := math.Max(s.free, border)
		redScale := scaleOn(in.ReduceDurationScaleByNode, s.node)
		// Remote-shuffle inflation (lines 14-18): every map on a different
		// node contributes sd/|R|. The node-local base scales with the
		// hosting node; the remote shares ride the shared network and do not.
		ssDur := rt.ShuffleSortBase * redScale
		for k, m := range in.Maps {
			if nodeOfMap[k] != s.node {
				ssDur += m.ShuffleDuration / float64(nR)
			}
		}
		ssEnd := start + ssDur
		// A shuffle cannot complete before the last map output exists.
		if ssEnd < lastMapEnd {
			ssEnd = lastMapEnd
		}
		mergeEnd := ssEnd + rt.MergeDuration*redScale
		redSlots.setFree(i, mergeEnd)
		u := len(in.Maps) + 2*r
		put(u, Placed{Class: ClassShuffleSort, ID: rt.ID, Node: s.node, Slot: s.lane, Lane: i, Start: start, End: ssEnd})
		put(u+1, Placed{Class: ClassMerge, ID: rt.ID, Node: s.node, Slot: s.lane, Lane: i, Start: ssEnd, End: mergeEnd})
	}

	for _, t := range b.placed {
		if t.End > makespan {
			makespan = t.End
		}
	}
	dst.Border, dst.LastMapEnd, dst.Makespan = border, lastMapEnd, makespan
	return kept
}

// compare orders placed tasks by (Start, Class, ID), a total order — IDs
// are unique per class — so the sorted order does not depend on the sort
// algorithm.
func (b *Builder) compare(x, y int32) int {
	p, q := &b.placed[x], &b.placed[y]
	return cmp.Or(cmp.Compare(p.Start, q.Start), cmp.Compare(p.Class, q.Class), cmp.Compare(p.ID, q.ID))
}

// sortOrder sorts b.order by compare.
func (b *Builder) sortOrder() { slices.SortFunc(b.order, b.compare) }

// write copies the placed tasks into dst.Tasks in b.order.
func (b *Builder) write(dst *Timeline) {
	dst.Tasks = resize(dst.Tasks, len(b.order))
	for p, u := range b.order {
		dst.Tasks[p] = b.placed[u]
	}
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the lane pool in O(nodes): perNode lanes on every node, or
// byNode[n] lanes on node n when a per-node vector is given, all free at 0
// with no occupancy. No lane is stored until earliest hands it out.
func (p *slotPool) reset(nodes, perNode int, byNode []int) {
	p.assigned = resize(p.assigned, nodes)
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
	p.stored = 0
	p.nextLane, p.nextNode = 0, 0
}

// rewind empties the pool for a build of the layout it was reset to;
// byNode is that layout's per-node vector (equal to the one reset saw). The
// laid-out lanes are kept.
func (p *slotPool) rewind(byNode []int) {
	clear(p.assigned)
	p.byNode = byNode
	p.stored = 0
}

// grow stores the next lane in lane-major order, free at 0. For a uniform
// vector the order is the homogeneous layout, so placement, and therefore
// predictions, stay bit-for-bit reproducible. The caller guarantees an
// unstored lane remains.
func (p *slotPool) grow() {
	if p.stored < len(p.slots) {
		p.slots[p.stored].free = 0
		p.stored++
		return
	}
	for {
		n, lane := p.nextNode, p.nextLane
		if p.nextNode++; p.nextNode == len(p.assigned) {
			p.nextLane, p.nextNode = p.nextLane+1, 0
		}
		if p.byNode == nil || lane < p.byNode[n] {
			p.slots = append(p.slots, slot{node: n, lane: lane})
			p.stored++
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
		for p.stored < p.total {
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
	if p.stored < p.total {
		p.grow()
		best = p.stored - 1
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
