// Package workflow models DAGs of dependent MapReduce jobs: named stages
// joined by precedence edges, where a stage may start only after every
// parent stage has finished. It generalizes the paper's intra-job
// precedence tree (map → shuffle-sort → merge, internal/ptree) to
// cross-job edges: the same serial/parallel reasoning that prices one
// job's phases prices a pipeline of jobs.
//
// The package is purely structural — validation, deterministic topological
// order, wave decomposition and critical-path scheduling over caller-
// supplied stage durations. The analytic evaluation of each stage lives in
// internal/core (PredictWorkflow) and internal/service; the discrete-event
// counterpart in internal/mrsim (Config.Workflow).
package workflow

import (
	"errors"
	"fmt"
)

// Edge is one precedence constraint: stage To may start only after stage
// From has finished.
type Edge struct {
	// From is the predecessor stage's name.
	From string `json:"from"`
	// To is the dependent stage's name.
	To string `json:"to"`
}

// DAG is a workflow shape: ordered stage names plus precedence edges.
// Stage order is declaration order; every deterministic traversal below
// breaks ties by it. A DAG with no edges is a fork of independent stages;
// a chain is K stages with K-1 edges.
type DAG struct {
	// Stages are the stage names, unique and non-empty.
	Stages []string `json:"stages"`
	// Edges are the precedence constraints; each must reference two
	// distinct declared stages, and no duplicates.
	Edges []Edge `json:"edges,omitempty"`
}

// NumStages returns the stage count.
func (d *DAG) NumStages() int { return len(d.Stages) }

// Chain builds a linear DAG: each stage depends on the previous one.
func Chain(stages ...string) *DAG {
	d := &DAG{Stages: stages}
	for i := 1; i < len(stages); i++ {
		d.Edges = append(d.Edges, Edge{From: stages[i-1], To: stages[i]})
	}
	return d
}

// adjacency resolves edges into per-stage parent and child index lists,
// validating edge structure (undefined references, self-edges, duplicates)
// along the way. It never panics on malformed input.
func (d *DAG) adjacency() (parents, children [][]int, err error) {
	n := len(d.Stages)
	idx := make(map[string]int, n)
	for i, s := range d.Stages {
		if s == "" {
			return nil, nil, fmt.Errorf("workflow: stage %d has an empty name", i)
		}
		if j, dup := idx[s]; dup {
			return nil, nil, fmt.Errorf("workflow: duplicate stage name %q (stages %d and %d)", s, j, i)
		}
		idx[s] = i
	}
	parents = make([][]int, n)
	children = make([][]int, n)
	seen := make(map[[2]int]bool, len(d.Edges))
	for _, e := range d.Edges {
		from, ok := idx[e.From]
		if !ok {
			return nil, nil, fmt.Errorf("workflow: edge %q->%q references undefined stage %q", e.From, e.To, e.From)
		}
		to, ok := idx[e.To]
		if !ok {
			return nil, nil, fmt.Errorf("workflow: edge %q->%q references undefined stage %q", e.From, e.To, e.To)
		}
		if from == to {
			return nil, nil, fmt.Errorf("workflow: self-edge on stage %q", e.From)
		}
		if seen[[2]int{from, to}] {
			return nil, nil, fmt.Errorf("workflow: duplicate edge %q->%q", e.From, e.To)
		}
		seen[[2]int{from, to}] = true
		parents[to] = append(parents[to], from)
		children[from] = append(children[from], to)
	}
	return parents, children, nil
}

// Adjacency resolves the edges into per-stage parent and child index
// lists (declaration-order indices), validating edge structure along the
// way. Simulators use it to release a stage once its parents finish.
func (d *DAG) Adjacency() (parents, children [][]int, err error) {
	if d == nil || len(d.Stages) == 0 {
		return nil, nil, errors.New("workflow: needs at least one stage")
	}
	return d.adjacency()
}

// Validate checks the DAG is well-formed: at least one stage, unique
// non-empty names, edges referencing declared stages only, no self-edges,
// no duplicate edges, and no cycles. It never panics, whatever the input.
func (d *DAG) Validate() error {
	if d == nil || len(d.Stages) == 0 {
		return errors.New("workflow: needs at least one stage")
	}
	_, err := d.TopoOrder()
	return err
}

// TopoOrder returns the stage indices in deterministic topological order:
// among ready stages, the one declared first goes first (Kahn's algorithm
// with declaration-order tie-breaking). It errors on any structural defect
// Validate rejects, including cycles.
func (d *DAG) TopoOrder() ([]int, error) {
	if d == nil || len(d.Stages) == 0 {
		return nil, errors.New("workflow: needs at least one stage")
	}
	parents, children, err := d.adjacency()
	if err != nil {
		return nil, err
	}
	n := len(d.Stages)
	indeg := make([]int, n)
	for i := range parents {
		indeg[i] = len(parents[i])
	}
	order := make([]int, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if !done[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			var stuck []string
			for i := 0; i < n; i++ {
				if !done[i] {
					stuck = append(stuck, d.Stages[i])
				}
			}
			return nil, fmt.Errorf("workflow: cycle through stages %v", stuck)
		}
		done[next] = true
		order = append(order, next)
		for _, c := range children[next] {
			indeg[c]--
		}
	}
	return order, nil
}

// Waves returns each stage's wave index: roots are wave 0 and every other
// stage sits one wave past its deepest parent. Stages in the same wave
// have no precedence path between them, so on a shared cluster they run
// concurrently — the analytic model prices a wave as a closed multi-job
// population, mirroring the paper's N-concurrent-jobs methodology.
func (d *DAG) Waves() ([]int, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	parents, _, err := d.adjacency()
	if err != nil {
		return nil, err
	}
	wave := make([]int, len(d.Stages))
	for _, i := range order {
		w := 0
		for _, p := range parents[i] {
			if wave[p]+1 > w {
				w = wave[p] + 1
			}
		}
		wave[i] = w
	}
	return wave, nil
}

// Concurrency returns, per stage, the size of its contention group: the
// number of stages sharing its wave for which sameGroup reports true
// (itself included). Callers use it as the closed-network population of a
// stage's model evaluation; sameGroup typically compares cluster specs so
// stages with stage-local clusters do not contend with shared-cluster ones.
func Concurrency(waves []int, sameGroup func(i, j int) bool) []int {
	out := make([]int, len(waves))
	for i := range waves {
		n := 1
		for j := range waves {
			if j != i && waves[j] == waves[i] && sameGroup(i, j) {
				n++
			}
		}
		out[i] = n
	}
	return out
}

// Schedule is the critical-path timing of one workflow evaluation: classic
// CPM over the DAG with fixed per-stage durations.
type Schedule struct {
	// Start and Finish are each stage's earliest start and finish times:
	// Start is the max of the parents' finishes (0 for roots), Finish is
	// Start plus the stage's duration.
	Start  []float64
	Finish []float64 // see Start
	// Slack is each stage's total float: how much the stage could slip
	// without moving the workflow's makespan. Critical stages have 0.
	Slack []float64
	// Critical flags stages with (numerically) zero slack.
	Critical []bool
	// CriticalPath lists the stage indices of one longest source-to-sink
	// path in precedence order — the chain that sets the makespan.
	CriticalPath []int
	// Makespan is the workflow response time: the latest stage finish.
	Makespan float64
}

// ComputeSchedule runs the critical-path method over the DAG with the
// given per-stage durations (same order as Stages, all nonnegative).
func (d *DAG) ComputeSchedule(durations []float64) (Schedule, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return Schedule{}, err
	}
	if len(durations) != len(d.Stages) {
		return Schedule{}, fmt.Errorf("workflow: %d durations for %d stages", len(durations), len(d.Stages))
	}
	for i, dur := range durations {
		if dur < 0 {
			return Schedule{}, fmt.Errorf("workflow: stage %q has negative duration %v", d.Stages[i], dur)
		}
	}
	parents, children, err := d.adjacency()
	if err != nil {
		return Schedule{}, err
	}
	n := len(d.Stages)
	sc := Schedule{
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Slack:    make([]float64, n),
		Critical: make([]bool, n),
	}
	for _, i := range order {
		start := 0.0
		for _, p := range parents[i] {
			if sc.Finish[p] > start {
				start = sc.Finish[p]
			}
		}
		sc.Start[i] = start
		sc.Finish[i] = start + durations[i]
		if sc.Finish[i] > sc.Makespan {
			sc.Makespan = sc.Finish[i]
		}
	}
	// Backward pass: latest finish is the makespan for sinks, else the min
	// over children of their latest start; slack is latest minus earliest.
	latest := make([]float64, n)
	for i := range latest {
		latest[i] = sc.Makespan
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		for _, c := range children[i] {
			if ls := latest[c] - durations[c]; ls < latest[i] {
				latest[i] = ls
			}
		}
		sc.Slack[i] = latest[i] - sc.Finish[i]
		// Start = max(parent finishes) is exact float arithmetic, so zero
		// slack is exact along the longest path; the epsilon only guards
		// pathological duration inputs.
		sc.Critical[i] = sc.Slack[i] <= 1e-12*sc.Makespan
	}
	// Extract one critical path: the earliest-declared sink achieving the
	// makespan, walked back through parents whose finish equals the stage's
	// start (the binding predecessor), earliest-declared first.
	end := -1
	for i := 0; i < n; i++ {
		if sc.Finish[i] == sc.Makespan {
			end = i
			break
		}
	}
	var path []int
	for cur := end; cur >= 0; {
		path = append(path, cur)
		next := -1
		for _, p := range parents[cur] {
			if sc.Finish[p] == sc.Start[cur] && (next < 0 || p < next) {
				next = p
			}
		}
		cur = next
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	sc.CriticalPath = path
	return sc, nil
}
