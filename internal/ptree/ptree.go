// Package ptree builds the precedence tree of the paper (§4.2.2): a binary
// tree whose leaves are the placed tasks of a timeline and whose internal
// nodes are the serial (S) and parallel-and (P) operators.
//
// Tasks that overlap in time belong to the same parallel group (P); groups
// that are disjoint in time execute serially (S). Parallel groups are formed
// as connected components of the interval-overlap graph, which the paper's
// phase rule induces, and every P-subtree is balanced to bound the tree depth
// (the paper balances P-subtrees to reduce estimation error).
package ptree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"hadoop2perf/internal/timeline"
)

// Op is a tree-node operator.
type Op int

// Operators: Leaf carries a task; S composes children serially; P in
// parallel.
const (
	Leaf Op = iota
	S
	P
)

func (o Op) String() string {
	switch o {
	case Leaf:
		return "leaf"
	case S:
		return "S"
	default:
		return "P"
	}
}

// Node is a precedence-tree node. Internal nodes are binary (the paper's
// trees are binary); Leaf nodes reference a placed task.
type Node struct {
	Op          Op
	Left, Right *Node
	Task        *timeline.Placed // leaves only
}

// NumLeaves counts leaf nodes.
func (n *Node) NumLeaves() int {
	if n == nil {
		return 0
	}
	if n.Op == Leaf {
		return 1
	}
	return n.Left.NumLeaves() + n.Right.NumLeaves()
}

// Depth returns the number of edges on the longest root-leaf path.
func (n *Node) Depth() int {
	if n == nil || n.Op == Leaf {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// String renders the tree as a nested expression, e.g. S(P(m0,m1),r0).
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	if n == nil {
		b.WriteString("?")
		return
	}
	if n.Op == Leaf {
		fmt.Fprintf(b, "%s%d", shortClass(n.Task.Class), n.Task.ID)
		return
	}
	b.WriteString(n.Op.String())
	b.WriteByte('(')
	n.Left.render(b)
	b.WriteByte(',')
	n.Right.render(b)
	b.WriteByte(')')
}

func shortClass(c timeline.Class) string {
	switch c {
	case timeline.ClassMap:
		return "m"
	case timeline.ClassShuffleSort:
		return "s"
	case timeline.ClassStage:
		return "j"
	default:
		return "g"
	}
}

// Build constructs the precedence tree from a timeline. Parallel groups are
// the connected components of the strict-overlap interval graph, taken in
// time order; each group becomes a balanced binary P-subtree and groups are
// chained with S operators. A build makes two allocations: one sorted copy
// of the tasks, which the leaves point into, and one slab holding all
// 2n−1 nodes.
func Build(tl *timeline.Timeline) (*Node, error) {
	if tl == nil || len(tl.Tasks) == 0 {
		return nil, errors.New("ptree: empty timeline")
	}
	tasks := slices.Clone(tl.Tasks)
	// Leaves equal in (Start, End) keep the order pdqsort leaves them in,
	// and the goldens pin it: a further tie-break would move predictions.
	slices.SortFunc(tasks, compareLeaves)
	b := builder{tasks: tasks, nodes: make([]Node, 2*len(tasks)-1)}
	return b.tree(nil), nil
}

// compareLeaves orders leaves by (Start, End).
func compareLeaves(a, b timeline.Placed) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
}

// groupEps is the slack under which a task starting at the running maximum
// End still starts a new serial group.
const groupEps = 1e-9

// builder hands out tree nodes from one slab.
type builder struct {
	tasks []timeline.Placed // sorted; leaves point into it
	nodes []Node            // slab of 2n−1 nodes
}

// tree builds the tree over the sorted tasks, appending to cuts, when
// non-nil, the index of the first task of every group after the first.
func (b *builder) tree(cuts *[]int32) *Node {
	var root *Node
	lo := 0
	curMaxEnd := 0.0
	for i, t := range b.tasks {
		if i > lo && t.Start >= curMaxEnd-groupEps {
			root = b.chain(root, lo, i)
			lo = i
			if cuts != nil {
				*cuts = append(*cuts, int32(i))
			}
		}
		if t.End > curMaxEnd {
			curMaxEnd = t.End
		}
	}
	return b.chain(root, lo, len(b.tasks))
}

func (b *builder) node(n Node) *Node {
	p := &b.nodes[0]
	*p = n
	b.nodes = b.nodes[1:]
	return p
}

// chain appends the group tasks[lo:hi] to root serially.
func (b *builder) chain(root *Node, lo, hi int) *Node {
	sub := b.balancedP(lo, hi)
	if root == nil {
		return sub
	}
	return b.node(Node{Op: S, Left: root, Right: sub})
}

// Builder builds precedence trees into slabs it keeps between calls: the
// sorted leaf tasks and the 2n−1 nodes. A tree it returns is valid until
// its next call; Snapshot keeps one longer. The zero Builder is ready to use;
// a Builder is not safe for concurrent use.
//
// The Builder records which timeline task each leaf holds (the
// permutation the sort chose), which adjacent leaves tied in (Start, End)
// and where the serial groups were cut. Refresh reuses the last tree when
// those still hold for a new timeline. pdqsort's result depends only on the
// outcomes of its comparisons, and a permutation that still sorts the new
// tasks with the same adjacent ties gives every pair of tasks the same
// outcome as before, so a fresh sort would choose the same permutation;
// with the same cuts the tree has the same shape, and only its leaves'
// tasks change.
type Builder struct {
	tasks []timeline.Placed
	nodes []Node
	perm  []int32 // timeline index of each leaf's task
	ties  []bool  // ties[p]: leaf p ties leaf p−1 in (Start, End)
	cuts  []int32
	root  *Node
}

// Build builds tl's tree into the Builder's slabs: the same tree as the
// package-level Build, with no allocation once the slabs have grown to the
// timeline's size.
func (b *Builder) Build(tl *timeline.Timeline) (*Node, error) {
	b.root = nil
	if tl == nil || len(tl.Tasks) == 0 {
		return nil, errors.New("ptree: empty timeline")
	}
	n := len(tl.Tasks)
	b.perm = resize(b.perm, n)
	for i := range b.perm {
		b.perm[i] = int32(i)
	}
	// Sorting the indices makes the comparisons and swaps Build makes on
	// the tasks themselves, so the leaves land in Build's order.
	slices.SortFunc(b.perm, func(x, y int32) int { return compareLeaves(tl.Tasks[x], tl.Tasks[y]) })
	b.tasks, b.ties = resize(b.tasks, n), resize(b.ties, n)
	for p, i := range b.perm {
		b.tasks[p] = tl.Tasks[i]
		b.ties[p] = p > 0 && compareLeaves(b.tasks[p-1], b.tasks[p]) == 0
	}
	b.nodes = resize(b.nodes, 2*n-1)
	b.cuts = b.cuts[:0]
	bb := builder{tasks: b.tasks, nodes: b.nodes}
	b.root = bb.tree(&b.cuts)
	return b.root, nil
}

// Refresh returns tl's tree, reusing the last one with its leaves' tasks
// rewritten when tl's tasks still sort and group as the last timeline's did
// (see Builder); reused reports that. Otherwise it builds the tree anew.
func (b *Builder) Refresh(tl *timeline.Timeline) (tree *Node, reused bool, err error) {
	if b.refresh(tl) {
		return b.root, true, nil
	}
	tree, err = b.Build(tl)
	return tree, false, err
}

// refresh rewrites the last tree's leaves from tl and reports whether the
// tree is then tl's: the recorded permutation still sorts tl's tasks with
// the recorded ties, and the groups are cut where they were.
func (b *Builder) refresh(tl *timeline.Timeline) bool {
	if b.root == nil || tl == nil || len(tl.Tasks) != len(b.perm) {
		return false
	}
	for p := 1; p < len(b.perm); p++ {
		if c := compareLeaves(tl.Tasks[b.perm[p-1]], tl.Tasks[b.perm[p]]); c > 0 || (c == 0) != b.ties[p] {
			return false
		}
	}
	for p, i := range b.perm {
		b.tasks[p] = tl.Tasks[i]
	}
	// The cuts of builder.tree, compared as they are found.
	cut, curMaxEnd := 0, 0.0
	for i, t := range b.tasks {
		if i > 0 && t.Start >= curMaxEnd-groupEps {
			if cut == len(b.cuts) || b.cuts[cut] != int32(i) {
				return false
			}
			cut++
		}
		if t.End > curMaxEnd {
			curMaxEnd = t.End
		}
	}
	return cut == len(b.cuts)
}

// Snapshot returns a copy of the Builder's current tree that shares no
// memory with it, in two allocations: the sorted leaf tasks and the node
// slab. It is nil when the last build failed.
func (b *Builder) Snapshot() *Node {
	if b.root == nil {
		return nil
	}
	bb := builder{tasks: slices.Clone(b.tasks), nodes: make([]Node, len(b.nodes))}
	return bb.tree(nil)
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FromIntervals generalizes Build to arbitrary placed intervals — in
// particular the cross-job stage intervals of a workflow schedule
// (timeline.ClassStage leaves), where each leaf is a whole job rather than
// one of its tasks. The same serial/parallel decomposition applies:
// time-overlapping intervals form balanced P-groups, disjoint groups chain
// with S — so a workflow's critical-path composition exposes the exact
// tree shape the paper's estimators reason about, one level up.
func FromIntervals(tasks []timeline.Placed) (*Node, error) {
	if len(tasks) == 0 {
		return nil, errors.New("ptree: no intervals")
	}
	return Build(&timeline.Timeline{Tasks: tasks})
}

// balancedP builds a balanced binary P-subtree over the group
// tasks[lo:hi] (the paper's balancing procedure).
func (b *builder) balancedP(lo, hi int) *Node {
	if hi-lo == 1 {
		return b.node(Node{Op: Leaf, Task: &b.tasks[lo]})
	}
	mid := lo + (hi-lo)/2
	return b.node(Node{Op: P, Left: b.balancedP(lo, mid), Right: b.balancedP(mid, hi)})
}
