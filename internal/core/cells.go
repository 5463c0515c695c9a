package core

import (
	"math"
	"math/bits"
	"slices"

	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/timeline"
)

// This file lumps the A4/A5 step: tasks that are interchangeable in the
// round's timeline share one MVA row, so the overlap weights and the inner
// sweeps cost O(G·T) and O(G²) per center for G cells instead of O(T²).
//
// Cells are found from the timeline's structure, on exact float bits, with
// three signatures:
//
//   - lane signature: the pool, the node's hardware class, the lane's
//     duration total and the sorted (class, Start, End, demand row) of
//     every task in the lane;
//   - node signature: the hardware class plus the multiset of its lanes'
//     signatures;
//   - task key: (class, Start, End, demand row, own lane signature, node
//     signature).
//
// Tasks with equal keys form a cell. Cells are numbered in order of their
// first member, so the all-singleton partition is the identity and the
// identity partition runs the element-wise model bit for bit.
//
// Soundness. Every fused weight W[c][i][j] (overlapFactors) is a pure
// function of: the Start/End of i and j; the class of j; the hardware class
// of i's node; whether j shares i's node and, if so, whether it shares i's
// lane; and, for a co-located j in another lane, the envelope (the min
// Start and max End of its members) and the duration total of j's lane.
// Take two tasks i, i' with equal keys. Their nodes have equal signatures,
// so their lanes can be matched one to one by signature with i's lane
// matched to i''s, and within matched lanes the members matched in sorted
// order. Swapping the matched tasks of the two nodes (or of the two lanes,
// when i and i' share a node; or just i and i', when they share a lane) is
// a permutation π of the tasks with π(i) = i' that keeps every keyed
// attribute, so it keeps cells, and W[c][i][j] = W[c][i'][π(j)] for every
// j, bit for bit. The demand rows of i and i' are equal by the key. So
// within a cell the weight rows are permutations of each other that keep
// cells: the partition is equitable. A Jacobi sweep started at residence =
// demand, or at any seed constant on the cells, keeps residence constant
// on every cell, so carrying one row per cell with the lumped weights
//
//	L[c][g][h] = Σ_{j∈h} W[c][i_g][j]   (i_g the first member of cell g)
//
// is the element-wise iteration in real arithmetic; only the order of the
// additions changes the rounding. The lane's duration total is keyed by
// its bits because it is summed in task order. Leaving the demand rows out
// of the lane signature breaks equitability: the short last map split sits
// in a lane that otherwise looks like its neighbours.
//
// A hash collision is never trusted: each lane and node that matches a
// signature is compared field by field with the first of its kind, and a
// mismatch makes the round fall back to the identity partition.

// cells is one round's partition of the tasks into cells.
type cells struct {
	of  []int32 // task → cell
	rep []int32 // cell → first member, ascending

	// Scratch for find, reused across rounds.
	attr      []taskAttr
	laneStart []int32 // members of lane l: laneTasks[laneStart[l]:laneStart[l+1]]
	laneTasks []int32
	laneCanon []int32 // lane → first lane with the same signature (−1: no tasks)
	usedNode  []int   // dense node index of each lane that holds tasks, by lane
	usedCanon []int32 // canonical lane of each lane that holds tasks, by lane
	nodeSlot  []int32 // node → 1 + its index among this round's nodes (0: none)
	nodes     []int   // this round's nodes, in order of their first lane
	nodeStart []int32 // lanes of the k-th node: nodeLanes[nodeStart[k]:nodeStart[k+1]]
	nodeLanes []int32 // canonical lanes, grouped by node
	nodeCanon []int32 // node → first node with the same signature
	canon     []int32 // task → the member of its canonical lane with equal attributes
	head      []int32 // canonical member → first of its cells in the chain (−1: none)
	chain     []cellLink
	firstBy   sigTable
}

// sigTable maps a signature to the first lane or node that had it: open
// addressing over a power-of-two table sized per use, so a small round
// clears a small table.
type sigTable struct {
	id    []int32 // 1 + the stored id (0: empty)
	sig   []uint64
	shift uint // a signature's top bits pick its first slot
}

// reset empties the table for up to n entries.
func (t *sigTable) reset(n int) {
	size := 1
	t.shift = 64
	for size < 2*n {
		size <<= 1
		t.shift--
	}
	t.id, t.sig = resize(t.id, size), resize(t.sig, size)
	clear(t.id)
}

// first returns the id stored under sig, storing id there if none is.
func (t *sigTable) first(sig uint64, id int32) int32 {
	mask := uint64(len(t.id) - 1)
	for s := sig >> t.shift & mask; ; s = (s + 1) & mask {
		if t.id[s] == 0 {
			t.id[s], t.sig[s] = id+1, sig
			return id
		}
		if t.sig[s] == sig {
			return t.id[s] - 1
		}
	}
}

// cellLink chains the cells that share a canonical member: one per node
// signature its key meets.
type cellLink struct {
	node, cell, next int32
}

// taskAttr is the part of a task's key that is the task's own.
type taskAttr struct {
	class, hw  int32
	start, end uint64
	dem        [3]uint64 // CPU, Disk and Network demand at its class's centers
}

func (a *taskAttr) less(b *taskAttr) bool {
	switch {
	case a.class != b.class:
		return a.class < b.class
	case a.hw != b.hw:
		return a.hw < b.hw
	case a.start != b.start:
		return a.start < b.start
	case a.end != b.end:
		return a.end < b.end
	}
	for k := range a.dem {
		if a.dem[k] != b.dem[k] {
			return a.dem[k] < b.dem[k]
		}
	}
	return false
}

// count returns G, the number of cells.
func (c *cells) count() int { return len(c.rep) }

// identity sets the all-singleton partition of n tasks.
func (c *cells) identity(n int) {
	c.of = resize(c.of, n)
	c.rep = resize(c.rep, n)
	for i := range c.of {
		c.of[i] = int32(i)
		c.rep[i] = int32(i)
	}
}

// find partitions the round's tasks into cells by key. laneOf and wins are
// the round's lane table (laneWindows), dem the tasks' demand rows
// (demandsFor). A signature collision leaves the identity partition.
func (c *cells) find(tl *timeline.Timeline, hw *hwView, laneOf []int, wins []laneWindow, dem []mva.TaskDemand) {
	n := len(tl.Tasks)
	lanes := len(wins)
	netC := hw.netCenter()
	c.attr = resize(c.attr, n)
	for i, t := range tl.Tasks {
		ci := hw.classOf[t.Node]
		d := dem[i].Demands
		c.attr[i] = taskAttr{
			class: int32(t.Class), hw: int32(ci),
			start: math.Float64bits(t.Start), end: math.Float64bits(t.End),
			dem: [3]uint64{
				math.Float64bits(d[hw.cpuCenter(ci)]),
				math.Float64bits(d[hw.diskCenter(ci)]),
				math.Float64bits(d[netC]),
			},
		}
	}

	// Lane members, sorted by attribute.
	c.laneTasks = resize(c.laneTasks, n)
	c.laneStart = groupBy(c.laneStart, c.laneTasks, lanes, laneOf)
	c.laneCanon = resize(c.laneCanon, lanes)
	c.canon = resize(c.canon, n)
	c.firstBy.reset(min(lanes, n))
	for l := 0; l < lanes; l++ {
		m := c.laneTasks[c.laneStart[l]:c.laneStart[l+1]]
		if len(m) == 0 {
			c.laneCanon[l] = -1
			continue
		}
		for a := 1; a < len(m); a++ { // insertion sort: lanes are nearly sorted by Start
			for b := a; b > 0 && c.attr[m[b]].less(&c.attr[m[b-1]]); b-- {
				m[b], m[b-1] = m[b-1], m[b]
			}
		}
		h := mix(mix(sigSeed, uint64(len(m))), math.Float64bits(wins[l].total))
		for _, i := range m {
			a := &c.attr[i]
			h = mix(h, uint64(a.class)<<32|uint64(a.hw))
			h = mix(mix(h, a.start), a.end)
			h = mix(mix(mix(h, a.dem[0]), a.dem[1]), a.dem[2])
		}
		first := c.firstBy.first(h, int32(l))
		if first != int32(l) && !c.sameLane(int(first), l, wins) {
			c.identity(n)
			return
		}
		c.laneCanon[l] = first
		// A member's key within its lane is its attributes, which the
		// canonical lane holds at the same sorted position; equal
		// attributes share the first such member.
		mc := c.laneTasks[c.laneStart[first]:c.laneStart[first+1]]
		for k, i := range m {
			if k > 0 && c.attr[i] == c.attr[m[k-1]] {
				c.canon[i] = c.canon[m[k-1]]
			} else {
				c.canon[i] = mc[k]
			}
		}
	}

	// Node signatures, over the nodes that hold tasks only (a cluster may
	// have far more): each gets a dense index in order of its first lane,
	// its lanes are grouped by that index and sorted by canonical lane, so
	// the group is the multiset of its lanes' signatures. The first member
	// of a lane names its node.
	c.nodeSlot = resize(c.nodeSlot, hw.nodes)
	c.nodes, c.usedNode, c.usedCanon = c.nodes[:0], c.usedNode[:0], c.usedCanon[:0]
	for l, lc := range c.laneCanon {
		if lc < 0 {
			continue
		}
		nd := tl.Tasks[c.laneTasks[c.laneStart[l]]].Node
		if c.nodeSlot[nd] == 0 {
			c.nodes = append(c.nodes, nd)
			c.nodeSlot[nd] = int32(len(c.nodes))
		}
		c.usedNode = append(c.usedNode, int(c.nodeSlot[nd]-1))
		c.usedCanon = append(c.usedCanon, lc)
	}
	c.nodeLanes = resize(c.nodeLanes, len(c.usedNode))
	c.nodeStart = groupBy(c.nodeStart, c.nodeLanes, len(c.nodes), c.usedNode)
	c.nodeCanon = resize(c.nodeCanon, hw.nodes)
	c.firstBy.reset(len(c.nodes))
	ok := true
	for k, nd := range c.nodes {
		c.nodeSlot[nd] = 0 // leave the table empty for the next round
		ls := c.nodeLanes[c.nodeStart[k]:c.nodeStart[k+1]]
		if !ok {
			continue
		}
		for x, u := range ls {
			ls[x] = c.usedCanon[u]
		}
		for a := 1; a < len(ls); a++ {
			for b := a; b > 0 && ls[b] < ls[b-1]; b-- {
				ls[b], ls[b-1] = ls[b-1], ls[b]
			}
		}
		h := mix(mix(sigSeed, uint64(hw.classOf[nd])), uint64(len(ls)))
		for _, l := range ls {
			h = mix(h, uint64(l))
		}
		first := c.firstBy.first(h, int32(k))
		if first != int32(k) && (hw.classOf[c.nodes[first]] != hw.classOf[nd] ||
			!slices.Equal(c.nodeLanes[c.nodeStart[first]:c.nodeStart[first+1]], ls)) {
			ok = false
			continue
		}
		c.nodeCanon[nd] = int32(c.nodes[first])
	}
	if !ok {
		c.identity(n)
		return
	}

	// Cells, numbered in order of their first member: a task's key is its
	// canonical member (attributes and lane signature) and its node's
	// signature.
	c.of = resize(c.of, n)
	c.rep = c.rep[:0]
	c.head = resize(c.head, n)
	for i := range c.head {
		c.head[i] = -1
	}
	c.chain = c.chain[:0]
	for i, t := range tl.Tasks {
		ct, nd := c.canon[i], c.nodeCanon[t.Node]
		g := int32(-1)
		for e := c.head[ct]; e >= 0; e = c.chain[e].next {
			if c.chain[e].node == nd {
				g = c.chain[e].cell
				break
			}
		}
		if g < 0 {
			g = int32(len(c.rep))
			c.rep = append(c.rep, int32(i))
			c.chain = append(c.chain, cellLink{node: nd, cell: g, next: c.head[ct]})
			c.head[ct] = int32(len(c.chain) - 1)
		}
		c.of[i] = g
	}
}

// sameLane compares two lanes' signatures field by field (members sorted).
func (c *cells) sameLane(a, b int, wins []laneWindow) bool {
	ma := c.laneTasks[c.laneStart[a]:c.laneStart[a+1]]
	mb := c.laneTasks[c.laneStart[b]:c.laneStart[b+1]]
	if len(ma) != len(mb) || math.Float64bits(wins[a].total) != math.Float64bits(wins[b].total) {
		return false
	}
	for k := range ma {
		if c.attr[ma[k]] != c.attr[mb[k]] {
			return false
		}
	}
	return true
}

// sigSeed starts every signature: mix maps (0, 0) to 0, so a signature
// started from a field would confuse (0, x) with (x).
const sigSeed = 0x243f6a8885a308d3

// mix folds v into the signature h (the FxHash step: one rotate and one
// multiply). A collision costs only the fallback, never a wrong cell; the
// rotation carries the high bits a multiply produces back down, so float
// bits that differ only in the exponent still reach the later words.
func mix(h, v uint64) uint64 { return (bits.RotateLeft64(h, 5) ^ v) * 0x517cc1b727220a95 }

// groupBy counting-sorts the items 0..len(key)-1 by key (0 ≤ key < k)
// into out, ascending within a key, and returns start: the items of key b
// are out[start[b]:start[b+1]].
func groupBy(start, out []int32, k int, key []int) []int32 {
	start = resize(start, k+1)
	clear(start)
	for _, b := range key {
		start[b+1]++
	}
	for b := 0; b < k; b++ {
		start[b+1] += start[b]
	}
	for i, b := range key {
		out[start[b]] = int32(i)
		start[b]++
	}
	for b := k; b > 0; b-- { // start[b] ended key b; shift it back
		start[b] = start[b-1]
	}
	start[0] = 0
	return start
}
