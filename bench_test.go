// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus complexity and micro benchmarks for the model's
// components. Each figure benchmark runs the full sim-vs-model sweep and
// logs the rows the paper reports (use -v to see them); absolute seconds
// come from the simulator substrate, so shapes — not magnitudes — are the
// comparison target (see EXPERIMENTS.md).
package hadoop2perf

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hadoop2perf/internal/bench"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/dist"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

func benchFigure(b *testing.B, id string) {
	var spec bench.Spec
	for _, s := range bench.FigureSpecs() {
		if s.ID == id {
			spec = s
		}
	}
	if spec.ID == "" {
		b.Fatalf("unknown figure %s", id)
	}
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunFigure(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.Format())
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: 1 GB input, 1 job, 4/6/8 nodes.
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: 1 GB input, 4 concurrent jobs.
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12: 5 GB input, 1 job.
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13: 5 GB input, 4 concurrent jobs.
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14: 4 nodes, 5 GB, 1..4 jobs.
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15: 64 MB blocks, 5 GB, 1 job.
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }

// BenchmarkTable1 regenerates the ResourceRequest table of the running
// example.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkModelComplexityMaps sweeps the map count: the paper's §4.3 says
// the per-iteration tree cost is O(C·T) and the MVA step dominates; the
// model should stay comfortably sub-second even at hundreds of tasks.
func BenchmarkModelComplexityMaps(b *testing.B) {
	for _, maps := range []int{8, 40, 80, 160} {
		job, err := workload.NewJob(0, float64(maps)*128, 128, 4, workload.WordCount())
		if err != nil {
			b.Fatal(err)
		}
		spec := DefaultCluster(4)
		b.Run(benchName("maps", maps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Predict(core.Config{Spec: spec, Job: job, NumJobs: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelComplexityJobs sweeps the concurrent-job count (the N² term
// of the paper's O(C²N²K) MVA complexity).
func BenchmarkModelComplexityJobs(b *testing.B) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	spec := DefaultCluster(4)
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(benchName("jobs", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Predict(core.Config{Spec: spec, Job: job, NumJobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures one full cluster simulation (1 GB, 4 nodes).
func BenchmarkSimulator(b *testing.B) {
	job, err := workload.NewJob(0, 1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	cfg := mrsim.Config{Spec: DefaultCluster(4), Jobs: []workload.Job{job}, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorLarge measures a 5 GB, 8-node simulation — the heavy
// end of the figure benchmarks, where the event-calendar and resource hot
// paths dominate.
func BenchmarkSimulatorLarge(b *testing.B) {
	job, err := workload.NewJob(0, 5*1024, 128, 8, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	cfg := mrsim.Config{Spec: DefaultCluster(8), Jobs: []workload.Job{job}, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictSweep evaluates a cluster-size sweep — the shape the
// planner produces — with the answer-only solve every served request uses
// (core.PredictEach): through the package-level pooled call and through
// one reusable Predictor. The light sweep (1 reducer, 1 job) pins the
// allocation-lean path; the contended sweep (4 reducers, 4 concurrent
// jobs — dozens of outer rounds per point) pins the chained inner solve:
// outerIters/op and innerIters/op make its convergence work visible. The
// artifacts variant solves the light sweep with Predict, which also copies
// the final round's timeline and precedence tree, so a CPU profile of the
// others attributes only what is served.
func BenchmarkPredictSweep(b *testing.B) {
	job, err := workload.NewJob(0, 2*1024, 128, 1, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []ModelConfig
	for n := 2; n <= 17; n++ {
		cfgs = append(cfgs, ModelConfig{Spec: DefaultCluster(n), Job: job, NumJobs: 1})
	}
	ctx := context.Background()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := core.PredictEach(ctx, cfg, core.EstimatorForkJoin); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPredictor()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := p.PredictEach(ctx, cfg, core.EstimatorForkJoin); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("artifacts", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPredictor()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := p.Predict(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	heavy, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("contended", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPredictor()
		var outer, inner int64
		for i := 0; i < b.N; i++ {
			for n := 2; n <= 17; n++ {
				preds, err := p.PredictEach(ctx, ModelConfig{Spec: DefaultCluster(n), Job: heavy, NumJobs: 4}, core.EstimatorForkJoin)
				if err != nil {
					b.Fatal(err)
				}
				outer += int64(preds[0].Iterations)
				inner += int64(preds[0].InnerIterations)
			}
		}
		b.ReportMetric(float64(outer)/float64(b.N), "outerIters/op")
		b.ReportMetric(float64(inner)/float64(b.N), "innerIters/op")
	})
}

// BenchmarkServiceParallel drives the HTTP handler with concurrent clients
// mixing cache hits and misses, every lookup on the result table's one
// mutex. Run under -race in CI, it hunts data races in the table and in
// pooled Predictor reuse.
func BenchmarkServiceParallel(b *testing.B) {
	svc := NewService(ServiceOptions{CacheSize: 4096})
	h := NewServiceHandler(svc, 30*time.Second)

	// 8 hot request bodies (hits after the first touch) + a per-iteration
	// trickle of unique inputs (misses).
	hot := make([][]byte, 8)
	for i := range hot {
		hot[i] = []byte(fmt.Sprintf(`{"cluster":{"nodes":%d},"job":{"inputMB":512}}`, 2+i))
	}
	var uniq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var body []byte
			if i%8 == 0 { // 1-in-8 unique: a fresh model run
				body = []byte(fmt.Sprintf(`{"cluster":{"nodes":4},"job":{"inputMB":%f}}`,
					512+float64(uniq.Add(1))*1e-3))
			} else {
				body = hot[i%len(hot)]
			}
			i++
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			req.RemoteAddr = "10.0.0.1:1"
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
	m := svc.Metrics()
	b.ReportMetric(m.HitRate, "hitRate")
}

// BenchmarkPlanDeadline is the headline planner comparison: one
// representative deadline query — "how many nodes does this 1 GB job need
// to finish in time?" over a 64-point node axis — answered by the
// exhaustive grid vs. the monotone search (bisection + dominance pruning,
// its sequential probes solving chained). Each iteration uses
// a cold cache, so ns/op measures real model work; the predicts/op metric
// counts actual model executions. The -4jobs pair asks the same question
// for 4 concurrent jobs — the contended regime where each model run spends
// dozens of outer rounds and the chained solve's savings dominate.
func BenchmarkPlanDeadline(b *testing.B) {
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = 2 + i
	}
	for _, load := range []struct {
		suffix  string
		numJobs int
	}{
		{"", 1},
		{"-4jobs", 4},
	} {
		job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
		if err != nil {
			b.Fatal(err)
		}
		base := PlanRequest{Spec: DefaultCluster(4), Job: job, Nodes: nodes, NumJobs: load.numJobs}

		// Mid-range deadline from one exhaustive pass.
		setup := NewService(ServiceOptions{})
		ex := base
		ex.Exhaustive = true
		ex.DeadlineSec = 1
		ref, err := setup.Plan(context.Background(), ex)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := ref.Candidates[0].ResponseTime, ref.Candidates[0].ResponseTime
		for _, c := range ref.Candidates {
			if c.ResponseTime < lo {
				lo = c.ResponseTime
			}
			if c.ResponseTime > hi {
				hi = c.ResponseTime
			}
		}
		deadline := (lo + hi) / 2

		run := func(b *testing.B, exhaustive bool) {
			b.ReportAllocs()
			var best *PlanCandidate
			var predicts, rounds, reused int64
			for i := 0; i < b.N; i++ {
				svc := NewService(ServiceOptions{}) // cold cache per query
				req := base
				req.DeadlineSec = deadline
				req.Exhaustive = exhaustive
				resp, err := svc.Plan(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Best == nil {
					b.Fatal("no feasible plan")
				}
				best = resp.Best
				m := svc.Metrics()
				predicts += m.CacheMisses
				rounds += m.ModelOuterIterations
				reused += m.ModelReusedRounds
			}
			b.ReportMetric(float64(predicts)/float64(b.N), "predicts/op")
			// The share of the rounds after each solve's first that reused
			// the first round's structure.
			if later := rounds - predicts; later > 0 {
				b.ReportMetric(float64(reused)/float64(later), "reused/later")
			}
			if best.Nodes <= 0 {
				b.Fatal("bogus best")
			}
		}
		b.Run("grid"+load.suffix, func(b *testing.B) { run(b, true) })
		b.Run("search"+load.suffix, func(b *testing.B) { run(b, false) })
	}
}

// BenchmarkServicePlanParallel drives concurrent deadline plans against
// one service: every query runs bisection walks whose chained solves borrow
// pooled Predictors, so this is the -race CI step's coverage of the
// planner's chained evaluation under BenchmarkServiceParallel-style
// concurrent traffic.
func BenchmarkServicePlanParallel(b *testing.B) {
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 24)
	for i := range nodes {
		nodes[i] = 2 + i
	}
	svc := NewService(ServiceOptions{CacheSize: 4096})
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Rotate deadlines and populations so plans mix cache hits
			// with fresh chained walks.
			g := seq.Add(1)
			req := PlanRequest{
				Spec: DefaultCluster(4), Job: job, NumJobs: 1 + int(g)%3,
				Nodes:       nodes,
				DeadlineSec: 150 + 25*float64(g%5),
			}
			resp, err := svc.Plan(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Strategy != "search" {
				b.Fatalf("strategy %q", resp.Strategy)
			}
		}
	})
}

// BenchmarkWorkflowPlan is the workflow planner comparison: one deadline
// query for a 20-stage identical chain over a 64-point node axis, answered
// by the exhaustive grid vs. the composed-makespan monotone search. Each
// iteration uses a cold cache; predicts/op counts actual model executions
// — per-stage cache sharing makes a candidate's 20 stages cost one solve,
// so the chain plan should track BenchmarkPlanDeadline's run counts, not
// 20x them.
func BenchmarkWorkflowPlan(b *testing.B) {
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = 2 + i
	}
	const stages = 20
	wf := &ServiceWorkflow{}
	job, err := NewJob(0, 1024, 128, 1, WordCount())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < stages; i++ {
		wf.Stages = append(wf.Stages, ServiceWorkflowStage{Name: fmt.Sprintf("s%d", i), Job: job})
		if i > 0 {
			wf.Edges = append(wf.Edges, WorkflowEdge{From: fmt.Sprintf("s%d", i-1), To: fmt.Sprintf("s%d", i)})
		}
	}
	base := PlanRequest{Spec: DefaultCluster(4), Workflow: wf, Nodes: nodes}

	// Mid-range deadline from one exhaustive pass.
	setup := NewService(ServiceOptions{})
	ex := base
	ex.Exhaustive = true
	ex.DeadlineSec = 1
	ref, err := setup.Plan(context.Background(), ex)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := ref.Candidates[0].ResponseTime, ref.Candidates[0].ResponseTime
	for _, c := range ref.Candidates {
		if c.ResponseTime < lo {
			lo = c.ResponseTime
		}
		if c.ResponseTime > hi {
			hi = c.ResponseTime
		}
	}
	deadline := (lo + hi) / 2

	run := func(b *testing.B, exhaustive bool) {
		b.ReportAllocs()
		var predicts int64
		for i := 0; i < b.N; i++ {
			svc := NewService(ServiceOptions{}) // cold cache per query
			req := base
			req.DeadlineSec = deadline
			req.Exhaustive = exhaustive
			resp, err := svc.Plan(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Best == nil {
				b.Fatal("no feasible plan")
			}
			predicts += svc.Metrics().ModelOuterIterations
		}
		b.ReportMetric(float64(predicts)/float64(b.N), "outerIters/op")
	}
	b.Run("grid", func(b *testing.B) { run(b, true) })
	b.Run("search", func(b *testing.B) { run(b, false) })
}

// benchTwoClassSpec is the 2-class cluster of the heterogeneous benchmarks:
// a current generation plus a half-speed older one. Counts are overridden by
// the planner's mix axis.
func benchTwoClassSpec(fast, slow int) Cluster {
	spec := DefaultCluster(0)
	spec.NumNodes = 0
	spec.Classes = []NodeClass{
		{Name: "fast", Count: fast, Capacity: Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1},
		{Name: "slow", Count: slow, Capacity: Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 1, DiskMBps: 140, NetworkMBps: 110, Speed: 0.5},
	}
	return spec
}

// BenchmarkPredictHeterogeneous tracks the model hot path on a 2-class
// cluster: per-class MVA centers widen every demand vector and overlap
// matrix from 3 to 2K+1 layers, so this pins the cost (and the allocation
// budget of the reusable Predictor) against the homogeneous baseline.
func BenchmarkPredictHeterogeneous(b *testing.B) {
	job, err := workload.NewJob(0, 4096, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	for name, spec := range map[string]Cluster{
		"flat-8":     DefaultCluster(8),
		"2class-4+4": benchTwoClassSpec(4, 4),
	} {
		b.Run(name, func(b *testing.B) {
			p := NewPredictor()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pred, err := p.Predict(ModelConfig{Spec: spec, Job: job, NumJobs: 1})
				if err != nil {
					b.Fatal(err)
				}
				if pred.ResponseTime <= 0 {
					b.Fatal("bogus prediction")
				}
			}
		})
	}
}

// BenchmarkPlanHeterogeneousDeadline measures a deadline query over a
// 2-class mix axis (N fast + M slow), grid vs search: the bisection rides
// the total-node ordering of the mixes with runtime-verified monotonicity.
// predicts/op counts actual model evaluations (cache misses).
func BenchmarkPlanHeterogeneousDeadline(b *testing.B) {
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	// 16 mixes with strictly increasing totals: f fast + f/2 slow.
	mixes := make([][]int, 16)
	for i := range mixes {
		f := 2 + i
		mixes[i] = []int{f, f / 2}
	}
	base := PlanRequest{Spec: benchTwoClassSpec(4, 4), Job: job, ClassCounts: mixes}

	// Mid-range deadline from one exhaustive pass.
	setup := NewService(ServiceOptions{})
	ex := base
	ex.Exhaustive = true
	ex.DeadlineSec = 1
	ref, err := setup.Plan(context.Background(), ex)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := ref.Candidates[0].ResponseTime, ref.Candidates[0].ResponseTime
	for _, c := range ref.Candidates {
		if c.ResponseTime < lo {
			lo = c.ResponseTime
		}
		if c.ResponseTime > hi {
			hi = c.ResponseTime
		}
	}
	deadline := (lo + hi) / 2

	run := func(b *testing.B, exhaustive bool) {
		b.ReportAllocs()
		var best *PlanCandidate
		var predicts int64
		for i := 0; i < b.N; i++ {
			svc := NewService(ServiceOptions{}) // cold cache per query
			req := base
			req.DeadlineSec = deadline
			req.Exhaustive = exhaustive
			resp, err := svc.Plan(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Best == nil {
				b.Fatal("no feasible plan")
			}
			best = resp.Best
			predicts += svc.Metrics().CacheMisses
		}
		b.ReportMetric(float64(predicts)/float64(b.N), "predicts/op")
		if best.Nodes <= 0 || len(best.ClassCounts) != 2 {
			b.Fatalf("bogus best %+v", best)
		}
	}
	b.Run("grid", func(b *testing.B) { run(b, true) })
	b.Run("search", func(b *testing.B) { run(b, false) })
}

// BenchmarkTimelineConstruction isolates Algorithm 1 (§4.3: O(C·T) per
// iteration) on a reused Builder, as the model's outer round runs it.
func BenchmarkTimelineConstruction(b *testing.B) {
	in := timeline.Input{NumNodes: 8, MapSlotsPerNode: 8, ReduceSlotsPerNode: 4, SlowStart: true}
	for i := 0; i < 160; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 30, ShuffleDuration: 1})
	}
	for i := 0; i < 8; i++ {
		in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: i, ShuffleSortBase: 10, MergeDuration: 50})
	}
	var tlb timeline.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlb.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecedenceTree isolates tree construction and balancing.
func BenchmarkPrecedenceTree(b *testing.B) {
	in := timeline.Input{NumNodes: 8, MapSlotsPerNode: 8, ReduceSlotsPerNode: 4, SlowStart: true}
	for i := 0; i < 160; i++ {
		in.Maps = append(in.Maps, timeline.MapTask{ID: i, Duration: 30, ShuffleDuration: 1})
	}
	for i := 0; i < 8; i++ {
		in.Reduces = append(in.Reduces, timeline.ReduceTask{ID: i, ShuffleSortBase: 10, MergeDuration: 50})
	}
	tl, err := timeline.Build(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ptree.Build(tl); err != nil {
			b.Fatal(err)
		}
	}
}

// mvaBenchInput builds the overlap-weighted fixed point input at the scale
// of a 5 GB job (48 tasks, 3 centers) shared by the kernel benchmarks.
// Every pair overlaps by α = 0.5 within the job and β = 0.25 with each of
// N−1 = 3 other jobs, so the fused weights are α + 3β = 1.25 off the
// diagonal and 3β = 0.75 on it.
func mvaBenchInput() mva.OverlapInput {
	n := 48
	tasks := make([]mva.TaskDemand, n)
	weights := make([]float64, 3*n*n)
	for c := 0; c < 3; c++ {
		for i := 0; i < n; i++ {
			row := weights[(c*n+i)*n : (c*n+i+1)*n]
			for j := range row {
				row[j] = 1.25
			}
			row[i] = 0.75
		}
	}
	for i := range tasks {
		tasks[i] = mva.TaskDemand{Demands: []float64{20, 2, 1}}
	}
	return mva.OverlapInput{Tasks: tasks, Weights: weights, Servers: []float64{4, 1, 2}}
}

// BenchmarkMVAOverlapStep measures the fused struct-of-arrays overlap kernel
// (the default since PR 8).
func BenchmarkMVAOverlapStep(b *testing.B) {
	in := mvaBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s mva.OverlapSolver
		if _, err := s.Step(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTripathiMaxMoments measures one closed-form max-moment solve
// behind the Tripathi estimator: the maximum of a 25-stage and a 7-stage
// Erlang mixture. It allocates nothing.
func BenchmarkTripathiMaxMoments(b *testing.B) {
	d1, err := dist.Fit(30, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	d2, err := dist.Fit(25, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.MaxMoments(d1, d2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimators compares the cost of the two tree estimators on a
// 5 GB, 4-node prediction, plus the Tripathi estimator on the same point
// with 4 concurrent jobs (Fig. 13's 4-node point, its costliest
// prediction), and the joint fork/join + Tripathi solve of that point
// (core.PredictEach, as internal/bench runs it), which should cost about
// what tripathi-4jobs costs. Every run reports its outer rounds; Tripathi
// runs also report their P-node evaluations and the max-moment solves
// (MaxIntegrations) those cost per prediction.
func BenchmarkEstimators(b *testing.B) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	spec := DefaultCluster(4)
	for _, c := range []struct {
		name string
		ests []core.Estimator
		jobs int
	}{
		{core.EstimatorForkJoin.String(), []core.Estimator{core.EstimatorForkJoin}, 1},
		{core.EstimatorTripathi.String(), []core.Estimator{core.EstimatorTripathi}, 1},
		{"tripathi-4jobs", []core.Estimator{core.EstimatorTripathi}, 4},
		{"joint-4jobs", []core.Estimator{core.EstimatorForkJoin, core.EstimatorTripathi}, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			var preds []core.Prediction
			for i := 0; i < b.N; i++ {
				if preds, err = core.PredictEach(context.Background(), core.Config{Spec: spec, Job: job, NumJobs: c.jobs}, c.ests...); err != nil {
					b.Fatal(err)
				}
			}
			rounds := 0
			for i, pred := range preds {
				rounds = max(rounds, pred.Iterations)
				if c.ests[i] == core.EstimatorTripathi {
					b.ReportMetric(float64(pred.MaxEvaluations), "pnodes/op")
					b.ReportMetric(float64(pred.MaxIntegrations), "integrations/op")
				}
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}

// BenchmarkServicePredict measures the serving hot path: a cold predict
// pays one full model run; a cached predict is a canonical-key hash plus an
// LRU lookup. The gap between the two is the cache's value per repeated
// operational query.
func BenchmarkServicePredict(b *testing.B) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	req := PredictRequest{Spec: DefaultCluster(4), Job: job}

	b.Run("cold", func(b *testing.B) {
		svc := NewService(ServiceOptions{Workers: 1, CacheSize: 4})
		// Vary the input size by an imperceptible amount each iteration:
		// essentially the same model work, but a distinct cache key.
		for i := 0; i < b.N; i++ {
			r := req
			r.Job.InputMB += float64(i) * 1e-6
			if _, err := svc.Predict(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		svc := NewService(ServiceOptions{Workers: 1, CacheSize: 4})
		if _, err := svc.Predict(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Predict(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("cache miss on the cached path")
			}
		}
	})
}

// BenchmarkServiceCompare prices one cold /v1/compare (median of five
// simulator seeds plus the joint fork/join + Tripathi solve) on the job of
// BenchmarkServicePredict/cold. The ratio of the two is the evidence for
// pricing compare as an expensive admission class, not a cheap one.
func BenchmarkServiceCompare(b *testing.B) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(ServiceOptions{Workers: 1, CacheSize: 4})
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration: a distinct simulator cache key.
		req := CompareRequest{Spec: DefaultCluster(4), Job: job, Seed: int64(i) * 100}
		if _, err := svc.Compare(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServicePlan measures a model-backed what-if sweep (8 cluster
// sizes) through the parallel planner: cold pays 8 model runs, cached is 8
// key hashes + LRU hits.
func BenchmarkServicePlan(b *testing.B) {
	job, err := workload.NewJob(0, 2*1024, 128, 4, workload.WordCount())
	if err != nil {
		b.Fatal(err)
	}
	req := PlanRequest{
		Spec: DefaultCluster(4), Job: job,
		Nodes: []int{2, 4, 6, 8, 10, 12, 14, 16},
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := NewService(ServiceOptions{}) // fresh cache each sweep
			if _, err := svc.Plan(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		svc := NewService(ServiceOptions{})
		if _, err := svc.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Plan(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdmissionShed prices the rejection fast path: with the admission
// bound smaller than one expensive request's cost, every simulate turns into
// a structured 503. Shedding only protects the service if a rejection costs
// microseconds, not a worker slot — this pins that property under the same
// concurrent HTTP traffic as the accept-path benchmarks (and runs in CI's
// race-enabled bench smoke).
func BenchmarkAdmissionShed(b *testing.B) {
	svc := NewService(ServiceOptions{Workers: 2, AdmitMaxQueueCost: 1})
	h := NewServiceHandler(svc, 0)
	body := []byte(`{"cluster":{"nodes":4},"job":{"inputMB":512},"reps":1}`)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
			req.RemoteAddr = "10.0.0.1:1"
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusServiceUnavailable {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%03d", prefix, v)
}
