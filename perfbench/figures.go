package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"hadoop2perf/internal/bench"
	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// figurePoint is one x-position of a §5.2 figure.
type figurePoint struct {
	Fig     string
	Nodes   int
	Jobs    int
	InputMB float64
	BlockMB float64
}

// figureSubset names the points of one pass: every figure of §5.2 is
// represented, and a pass takes about 6 s on two cores (a full 19-point
// sweep takes about 27 s, too long for a run of several passes). Fig. 13 at
// 4 nodes is also Fig. 14's 4-job point. Each pass runs the same points, so
// a run's work does not depend on the seed, which only orders them. The
// median point is Fig. 10 at 6 nodes (about 0.6 s, 19 outer rounds).
var figureSubset = map[string][]int{
	"fig10": {4, 6, 8},
	"fig11": {6},
	"fig12": {8},
	"fig13": {4},
	"fig15": {6},
}

// figurePoints expands figureSubset from bench.FigureSpecs, in spec order.
func figurePoints() []figurePoint {
	var out []figurePoint
	for _, s := range bench.FigureSpecs() {
		for _, x := range figureSubset[s.ID] {
			p := figurePoint{Fig: s.ID, Nodes: s.FixedNodes, Jobs: s.FixedJobs, InputMB: s.InputMB, BlockMB: s.BlockSizeMB}
			if s.XName == "nodes" {
				p.Nodes = x
			} else {
				p.Jobs = x
			}
			out = append(out, p)
		}
	}
	return out
}

// pointResult is one evaluated point, with its per-layer timings when traced.
type pointResult struct {
	bench.Point
	op, sim, fj, tp time.Duration
	events          int
	fjPred          core.Prediction
	fjMallocs       uint64
	fjBytes         uint64
	tpConverged     bool
}

// figuresBench runs the paper's §5.2 evaluation single-threaded: each
// operation is one bench.RunPoint, and a pass runs every point of
// figureSubset in a seeded order.
type figuresBench struct {
	seed    uint64
	points  []figurePoint
	rng     *rand.Rand
	results map[int][]pointResult // by point index, one per evaluation
	traced  []pointResult
}

func newFiguresBench(seed uint64) *figuresBench { return &figuresBench{seed: seed} }

// setup builds the point list and the seeded order stream, and warms up with
// one evaluation of the cheapest point so lazy initialization is not timed.
func (b *figuresBench) setup() error {
	b.points = figurePoints()
	b.rng = newRand(b.seed, saltFigures)
	b.results = map[int][]pointResult{}
	b.traced = nil
	w := b.points[0]
	_, err := bench.RunPoint(w.Nodes, w.Jobs, w.InputMB, w.BlockMB)
	return err
}

func (b *figuresBench) ops() int { return len(b.points) }

// pass evaluates every point once, in a fresh seeded order.
func (b *figuresBench) pass(lat []float64, traced bool) (int, error) {
	failed := 0
	for _, i := range b.rng.Perm(len(b.points)) {
		t0 := time.Now()
		res, err := b.run(b.points[i], traced)
		d := time.Since(t0)
		if err != nil {
			logf("%s nodes=%d jobs=%d: %v", b.points[i].Fig, b.points[i].Nodes, b.points[i].Jobs, err)
			lat[i] = math.Inf(1)
			failed++
			continue
		}
		lat[i] = d.Seconds()
		res.op = d
		if traced {
			b.traced = append(b.traced, res)
		}
		b.results[i] = append(b.results[i], res)
	}
	return failed, nil
}

// run evaluates one point: bench.RunPoint untraced, or the three public
// calls inside it timed one by one when traced.
func (b *figuresBench) run(fp figurePoint, traced bool) (pointResult, error) {
	if !traced {
		pt, err := bench.RunPoint(fp.Nodes, fp.Jobs, fp.InputMB, fp.BlockMB)
		return pointResult{Point: pt}, err
	}
	spec := cluster.Default(fp.Nodes)
	job, err := bench.JobFor(fp.InputMB, fp.BlockMB, fp.Nodes)
	if err != nil {
		return pointResult{}, err
	}
	jobs := make([]workload.Job, fp.Jobs)
	for i := range jobs {
		jobs[i] = job
		jobs[i].ID = i
	}
	pol := yarn.PolicyFIFO
	if fp.Jobs > 1 {
		pol = yarn.PolicyFair
	}
	var r pointResult
	t0 := time.Now()
	sim, err := mrsim.RunMedianOfSeeds(mrsim.Config{Spec: spec, Jobs: jobs, Seed: bench.BaseSeed, Scheduler: pol}, bench.Reps)
	r.sim = time.Since(t0)
	if err != nil {
		return pointResult{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0, t1 := ms.Mallocs, ms.TotalAlloc, time.Now()
	fj, err := core.Predict(core.Config{Spec: spec, Job: job, NumJobs: fp.Jobs, Estimator: core.EstimatorForkJoin})
	r.fj = time.Since(t1)
	runtime.ReadMemStats(&ms)
	if err != nil {
		return pointResult{}, err
	}
	r.fjMallocs, r.fjBytes = ms.Mallocs-m0, ms.TotalAlloc-b0
	t2 := time.Now()
	tp, err := core.Predict(core.Config{Spec: spec, Job: job, NumJobs: fp.Jobs, Estimator: core.EstimatorTripathi})
	r.tp = time.Since(t2)
	if err != nil {
		return pointResult{}, err
	}
	r.Point = bench.Point{Sim: sim.MeanResponse(), ForkJoin: fj.ResponseTime, Tripathi: tp.ResponseTime}
	r.events = sim.Events
	r.fjPred = fj
	r.tpConverged = tp.Converged
	return r, nil
}

// Error guards of the paper's single-job figures (internal/bench's
// TestErrorBands).
const (
	fjErrMin, fjErrMax = -0.18, 0.30
	tpErrMin, tpErrMax = -0.18, 0.45
)

// checkPoint validates one evaluated point: finite positive values, and for
// single-job points the error guards.
func checkPoint(fp figurePoint, p bench.Point) error {
	for _, v := range []float64{p.Sim, p.ForkJoin, p.Tripathi} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("non-finite or non-positive value in %+v", p)
		}
	}
	if fp.Jobs != 1 {
		return nil
	}
	if e := p.FJErr(); e < fjErrMin || e > fjErrMax {
		return fmt.Errorf("fork/join error %+.1f%% outside [%+.0f%%, %+.0f%%]", 100*e, 100*fjErrMin, 100*fjErrMax)
	}
	if e := p.TPErr(); e < tpErrMin || e > tpErrMax {
		return fmt.Errorf("tripathi error %+.1f%% outside [%+.0f%%, %+.0f%%]", 100*e, 100*tpErrMin, 100*tpErrMax)
	}
	return nil
}

// checkFigures validates every evaluation and returns the number of failed
// ones: a point that fails checkPoint, differs from another evaluation of
// the same point (the simulator is seeded, the model deterministic), or —
// when Tripathi falls below fork/join at more than a quarter of the points —
// every point where it does.
func checkFigures(points []figurePoint, results map[int][]pointResult) int {
	failed, below, total := 0, 0, 0
	var belowEvals int
	for i, rs := range results {
		for _, r := range rs {
			if err := checkPoint(points[i], r.Point); err != nil {
				logf("%s nodes=%d jobs=%d: %v", points[i].Fig, points[i].Nodes, points[i].Jobs, err)
				failed++
			} else if r.Point != rs[0].Point {
				logf("%s nodes=%d jobs=%d: evaluations differ: %+v vs %+v", points[i].Fig, points[i].Nodes, points[i].Jobs, r.Point, rs[0].Point)
				failed++
			}
		}
		total++
		if rs[0].Tripathi < rs[0].ForkJoin {
			below++
			belowEvals += len(rs)
		}
	}
	if 4*below > total {
		logf("tripathi below fork/join at %d of %d points", below, total)
		failed += belowEvals
	}
	return failed
}

func (b *figuresBench) check() (int, error) { return checkFigures(b.points, b.results), nil }

// layers reports the figures workload's per-layer metrics from the traced
// pass. model.* and ptree.* cover the fork/join solve; the Tripathi solve is
// estimator.*; the serving layers do not run.
func (b *figuresBench) layers(m map[string]float64) error {
	if len(b.traced) == 0 {
		return fmt.Errorf("no traced figure points")
	}
	var sim, fj, tp, op float64
	var events, outer, inner, unconverged int
	var mallocs, bytesAlloc, treeMallocs uint64
	var build time.Duration
	var leaves int
	var ms runtime.MemStats
	for _, r := range b.traced {
		sim += r.sim.Seconds()
		fj += r.fj.Seconds()
		tp += r.tp.Seconds()
		op += r.op.Seconds()
		events += r.events
		outer += r.fjPred.Iterations
		inner += r.fjPred.InnerIterations
		mallocs += r.fjMallocs
		bytesAlloc += r.fjBytes
		if !r.fjPred.Converged {
			unconverged++
		}
		if !r.tpConverged {
			unconverged++
		}
		runtime.ReadMemStats(&ms)
		m0, t0 := ms.Mallocs, time.Now()
		tree, err := ptree.Build(r.fjPred.Timeline)
		build += time.Since(t0)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return fmt.Errorf("ptree.Build: %w", err)
		}
		treeMallocs += ms.Mallocs - m0
		leaves += tree.NumLeaves()
	}
	n := float64(len(b.traced))
	m["estimator.tripathi_ms"] = 1e3 * tp / n
	m["estimator.forkjoin_ms"] = 1e3 * fj / n
	m["estimator.tripathi_share"] = tp / op
	m["sim.run_ms"] = 1e3 * sim / n
	m["sim.events"] = float64(events) / n
	m["sim.ns_per_event"] = 1e9 * sim / float64(events*bench.Reps)
	m["sim.share"] = sim / op
	m["model.solve_ms"] = 1e3 * fj / n
	m["model.outer_iters"] = float64(outer) / n
	m["model.inner_sweeps"] = float64(inner) / n
	m["model.allocs_per_solve"] = float64(mallocs) / n
	m["model.bytes_per_solve"] = float64(bytesAlloc) / n
	m["model.unconverged"] = float64(unconverged)
	m["model.share"] = fj / op
	m["ptree.build_us"] = 1e6 * build.Seconds() / n
	m["ptree.allocs_per_build"] = float64(treeMallocs) / n
	m["ptree.leaves"] = float64(leaves) / n
	m["unattributed_share"] = 1 - (sim+fj+tp)/op
	return nil
}

// traceSpans renders the traced points as spans: one per point, with the
// simulator and both estimator solves as children.
func (b *figuresBench) traceSpans() []span {
	out := make([]span, 0, 4*len(b.traced))
	for i, r := range b.traced {
		id := fmt.Sprintf("pt%d", i)
		total := r.sim + r.fj + r.tp
		out = append(out,
			span{ID: id, Name: "point", DurUS: us(total)},
			span{ID: id, Parent: "point", Name: "mrsim.RunMedianOfSeeds", DurUS: us(r.sim), Count: int64(r.events)},
			span{ID: id, Parent: "point", Name: "core.Predict/forkjoin", StartUS: us(r.sim), DurUS: us(r.fj)},
			span{ID: id, Parent: "point", Name: "core.Predict/tripathi", StartUS: us(r.sim + r.fj), DurUS: us(r.tp)},
		)
	}
	return out
}
