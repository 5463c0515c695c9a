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
	slices.SortFunc(tasks, func(a, b timeline.Placed) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})

	const eps = 1e-9
	b := builder{tasks: tasks, nodes: make([]Node, 2*len(tasks)-1)}
	var root *Node
	lo := 0
	curMaxEnd := 0.0
	for i, t := range tasks {
		if i > lo && t.Start >= curMaxEnd-eps {
			root = b.chain(root, lo, i)
			lo = i
		}
		if t.End > curMaxEnd {
			curMaxEnd = t.End
		}
	}
	return b.chain(root, lo, len(tasks)), nil
}

// builder hands out tree nodes from one slab.
type builder struct {
	tasks []timeline.Placed // sorted; leaves point into it
	nodes []Node            // slab of 2n−1 nodes
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
