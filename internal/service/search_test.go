package service

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/workload"
)

// syntheticEval adapts a response-time curve over a node axis to an
// axisEval of converged answers, counting calls (atomically: the
// exhaustive fallback evaluates concurrently).
type syntheticEval struct {
	nodes []int
	rt    []float64
	calls atomic.Int64
}

func (s *syntheticEval) eval(i int) (PlanCandidate, bool, error) {
	s.calls.Add(1)
	return PlanCandidate{Nodes: s.nodes[i], ResponseTime: s.rt[i]}, true, nil
}

// nodeWeights is the unpriced per-point cost weight: Cost == NodeSeconds.
func nodeWeights(nodes []int) []float64 {
	w := make([]float64, len(nodes))
	for i, n := range nodes {
		w[i] = float64(n)
	}
	return w
}

// bruteBest computes the grid answer for one synthetic axis: the cheapest
// feasible (cost, rt), or none.
func bruteBest(nodes []int, rt []float64, deadline float64) (cost, best float64, ok bool) {
	cost, best = math.Inf(1), math.Inf(1)
	for i, n := range nodes {
		if rt[i] > deadline {
			continue
		}
		c := float64(n) * rt[i]
		if c < cost || (c == cost && rt[i] < best) {
			cost, best, ok = c, rt[i], true
		}
	}
	return cost, best, ok
}

// searchBest extracts the cheapest feasible candidate from a search outcome.
func searchBest(out axisOutcome, deadline float64) (cost, rt float64, ok bool) {
	cost, rt = math.Inf(1), math.Inf(1)
	for _, c := range out.cands {
		if c.Err != "" || c.ResponseTime > deadline {
			continue
		}
		cc := float64(c.Nodes) * c.ResponseTime
		if cc < cost || (cc == cost && c.ResponseTime < rt) {
			cost, rt, ok = cc, c.ResponseTime, true
		}
	}
	return cost, rt, ok
}

func TestSearchNodeAxisMonotoneCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 6 + rng.Intn(30)
		nodes := make([]int, n)
		rt := make([]float64, n)
		cur := 2 + rng.Intn(3)
		// Amdahl-shaped response: a serial floor plus perfectly parallel
		// work, the shape real predictions take (strictly decreasing,
		// flattening toward the floor).
		floor := 5 + 40*rng.Float64()
		work := 200 + 2000*rng.Float64()
		for i := 0; i < n; i++ {
			nodes[i] = cur
			rt[i] = floor + work/float64(cur)
			cur += 1 + rng.Intn(4)
		}
		// Deadlines spanning infeasible-everywhere to feasible-everywhere.
		for _, d := range []float64{rt[0] * 1.1, (rt[0] + rt[n-1]) / 2, rt[n-1] * 1.05, rt[n-1] * 0.5} {
			perIdx := make([]atomic.Int64, n)
			eval := func(i int) (PlanCandidate, bool, error) {
				perIdx[i].Add(1)
				return PlanCandidate{Nodes: nodes[i], ResponseTime: rt[i]}, true, nil
			}
			out := searchNodeAxis(nodeWeights(nodes), d, eval)
			if !out.exact {
				t.Fatalf("trial %d: fell back on a monotone curve", trial)
			}
			wc, wr, wok := bruteBest(nodes, rt, d)
			gc, gr, gok := searchBest(out, d)
			if wok != gok || (wok && (wc != gc || wr != gr)) {
				t.Fatalf("trial %d deadline %v: search best (%v,%v,%v) != grid best (%v,%v,%v)",
					trial, d, gc, gr, gok, wc, wr, wok)
			}
			if len(out.cands)+out.pruned != n {
				t.Fatalf("trial %d: %d candidates + %d pruned != %d axis points",
					trial, len(out.cands), out.pruned, n)
			}
			var calls int64
			for i := range perIdx {
				c := perIdx[i].Load()
				if c > 1 {
					t.Fatalf("trial %d deadline %v: index %d evaluated %d times", trial, d, i, c)
				}
				calls += c
			}
			// The whole point: far fewer evaluations than the axis length on
			// feasible axes of meaningful size.
			if wok && n >= 16 && int(calls) >= n {
				t.Errorf("trial %d (n=%d): search used %d evaluations", trial, n, calls)
			}
		}
	}
}

// TestSearchNodeAxisWalk pins one whole walk: rt = 10 + 400/nodes with the
// frontier at index 5. The search probes the ceiling (7), then bisects
// through 3, 5 and 4; the frontier guard (4) is already known, and the
// dominance sweep evaluates 6 but not 7, which the ceiling probe covered.
func TestSearchNodeAxisWalk(t *testing.T) {
	nodes := []int{2, 4, 6, 8, 10, 12, 14, 16}
	rt := make([]float64, len(nodes))
	for i, n := range nodes {
		rt[i] = 10 + 400/float64(n)
	}
	var order []int
	eval := func(i int) (PlanCandidate, bool, error) {
		order = append(order, i)
		return PlanCandidate{Nodes: nodes[i], ResponseTime: rt[i]}, true, nil
	}
	out := searchNodeAxis(nodeWeights(nodes), 45, eval)
	if want := []int{7, 3, 5, 4, 6}; !slices.Equal(order, want) {
		t.Errorf("evaluation order %v, want %v", order, want)
	}
	if !out.exact || len(out.cands) != 5 || out.pruned != 3 {
		t.Errorf("exact=%v cands=%d pruned=%d, want true/5/3", out.exact, len(out.cands), out.pruned)
	}
	if _, best, ok := searchBest(out, 45); !ok || best != rt[5] {
		t.Errorf("best rt %v (ok=%v), want %v", best, ok, rt[5])
	}
}

// FuzzSearchNodeAxis drives the search with curves built from the fuzz
// input. Each input yields two curves over the same axis:
//   - a non-increasing one (a byte is the drop from one point to the next,
//     so zero bytes make ties): the search must stay exact, match the grid
//     best, and evaluate each index at most once;
//   - an arbitrary one (a byte is the response itself): the search may fall
//     back, but must not panic, must account for every point, and every
//     candidate must carry the curve's value at its index.
func FuzzSearchNodeAxis(f *testing.F) {
	f.Add([]byte{200, 100, 40, 20, 10, 5, 3, 1}, uint16(60))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint16(1))
	f.Add([]byte{9, 0, 7, 0, 0, 3, 1, 0, 0, 2}, uint16(5))
	f.Add([]byte{1, 255, 1, 255, 1, 255, 1}, uint16(128))
	f.Fuzz(func(t *testing.T, data []byte, dl uint16) {
		n := min(len(data), 64)
		if n == 0 {
			return
		}
		deadline := float64(dl)
		nodes := make([]int, n)
		mono := make([]float64, n)
		raw := make([]float64, n)
		for i := range nodes {
			nodes[i] = 2 + i
			raw[i] = float64(data[i])
		}
		mono[n-1] = 1
		for i := n - 2; i >= 0; i-- {
			mono[i] = mono[i+1] + float64(data[i+1])
		}

		perIdx := make([]atomic.Int64, n)
		eval := func(i int) (PlanCandidate, bool, error) {
			perIdx[i].Add(1)
			return PlanCandidate{Nodes: nodes[i], ResponseTime: mono[i]}, true, nil
		}
		out := searchNodeAxis(nodeWeights(nodes), deadline, eval)
		if !out.exact {
			t.Fatalf("fell back on non-increasing curve %v, deadline %v", mono, deadline)
		}
		wc, wr, wok := bruteBest(nodes, mono, deadline)
		gc, gr, gok := searchBest(out, deadline)
		if wok != gok || (wok && (wc != gc || wr != gr)) {
			t.Fatalf("curve %v deadline %v: search best (%v,%v,%v) != grid best (%v,%v,%v)",
				mono, deadline, gc, gr, gok, wc, wr, wok)
		}
		for i := range perIdx {
			if c := perIdx[i].Load(); c > 1 {
				t.Fatalf("curve %v deadline %v: index %d evaluated %d times", mono, deadline, i, c)
			}
		}

		se := &syntheticEval{nodes: nodes, rt: raw}
		out = searchNodeAxis(nodeWeights(nodes), deadline, se.eval)
		if len(out.cands)+out.pruned != n {
			t.Fatalf("curve %v: %d candidates + %d pruned != %d axis points", raw, len(out.cands), out.pruned, n)
		}
		for _, c := range out.cands {
			if i := c.Nodes - 2; i < 0 || i >= n || c.ResponseTime != raw[i] {
				t.Fatalf("curve %v: candidate %+v is not a point of the axis", raw, c)
			}
		}
	})
}

func TestSearchNodeAxisDetectsViolations(t *testing.T) {
	// An alternating two-regime curve (the shape multi-reducer predictions
	// take): the verifier must observe an inversion and fall back, making
	// the result grid-identical.
	nodes := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	rt := make([]float64, len(nodes))
	for i, n := range nodes {
		base := 300 / float64(n)
		if n%2 == 0 {
			base *= 1.4 // slow regime on even node counts
		}
		rt[i] = base
	}
	for _, d := range []float64{40, 55, 70, 100} {
		se := &syntheticEval{nodes: nodes, rt: rt}
		out := searchNodeAxis(nodeWeights(nodes), d, se.eval)
		wc, wr, wok := bruteBest(nodes, rt, d)
		gc, gr, gok := searchBest(out, d)
		if wok != gok || (wok && (wc != gc || wr != gr)) {
			t.Errorf("deadline %v: search best (%v,%v,%v) != grid best (%v,%v,%v) exact=%v",
				d, gc, gr, gok, wc, wr, wok, out.exact)
		}
	}
}

func TestSearchNodeAxisFrontierGuard(t *testing.T) {
	// A single feasible dip immediately below the monotone frontier: the
	// frontier-1 guard must catch it and fall back to exhaustive, keeping
	// the cheaper island in play.
	nodes := []int{2, 4, 6, 8, 10, 12, 14, 16}
	rt := []float64{90, 80, 70, 48, 52, 49, 47, 46}
	const deadline = 50.0
	// Frontier by monotone bisection would land at index 4..; index 3 dips
	// under the deadline (48 <= 50) right below an infeasible point.
	se := &syntheticEval{nodes: nodes, rt: rt}
	out := searchNodeAxis(nodeWeights(nodes), deadline, se.eval)
	wc, wr, wok := bruteBest(nodes, rt, deadline)
	gc, gr, gok := searchBest(out, deadline)
	if wok != gok || wc != gc || wr != gr {
		t.Errorf("search best (%v,%v,%v) != grid best (%v,%v,%v) exact=%v",
			gc, gr, gok, wc, wr, wok, out.exact)
	}
}

func TestSearchNodeAxisAllInfeasible(t *testing.T) {
	nodes := []int{2, 4, 6, 8, 10, 12}
	rt := []float64{100, 90, 80, 70, 65, 61}
	se := &syntheticEval{nodes: nodes, rt: rt}
	out := searchNodeAxis(nodeWeights(nodes), 60, se.eval)
	if se.calls.Load() != 2 {
		t.Errorf("infeasible axis used %d evaluations, want 2 (ceiling + midpoint guard)", se.calls.Load())
	}
	if _, _, ok := searchBest(out, 60); ok {
		t.Error("found a feasible candidate on an infeasible axis")
	}
	if len(out.cands) != 2 || out.pruned != len(nodes)-2 {
		t.Errorf("cands=%d pruned=%d", len(out.cands), out.pruned)
	}
}

func TestSearchNodeAxisEndSpikeGuard(t *testing.T) {
	// An upward spike at the axis end: rt(max) misses the deadline while the
	// interior is feasible. The midpoint guard must refuse the
	// all-infeasible conclusion and fall back to exhaustive, recovering the
	// feasible interior plan the grid would find.
	nodes := []int{2, 4, 6, 8, 10, 12, 14, 16}
	rt := []float64{90, 80, 70, 60, 55, 52, 50, 75}
	const deadline = 65.0
	se := &syntheticEval{nodes: nodes, rt: rt}
	out := searchNodeAxis(nodeWeights(nodes), deadline, se.eval)
	wc, wr, wok := bruteBest(nodes, rt, deadline)
	gc, gr, gok := searchBest(out, deadline)
	if wok != gok || wc != gc || wr != gr {
		t.Errorf("search best (%v,%v,%v) != grid best (%v,%v,%v) exact=%v",
			gc, gr, gok, wc, wr, wok, out.exact)
	}
}

// planProblem is one randomized planning problem of the property test.
type planProblem struct {
	req PlanRequest
}

// randomPlanProblem draws a planning problem over the calibrated cluster:
// random job shape, a random sorted node axis, and optional block-size and
// reducer axes. Multi-reducer shapes exercise the non-monotone fallback.
func randomPlanProblem(t *testing.T, rng *rand.Rand) planProblem {
	t.Helper()
	profiles := []workload.Profile{workload.WordCount(), workload.Grep(), workload.TeraSort()}
	inputMB := float64(512 * (1 + rng.Intn(6)))
	reduces := []int{1, 2, 4}[rng.Intn(3)]
	job, err := workload.NewJob(0, inputMB, 128, reduces, profiles[rng.Intn(len(profiles))])
	if err != nil {
		t.Fatal(err)
	}
	// Sorted distinct node axis of 6..14 points in [2, 32].
	axisLen := minSearchAxis + rng.Intn(9)
	seen := map[int]bool{}
	var nodes []int
	for len(nodes) < axisLen {
		n := 2 + rng.Intn(31)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	req := PlanRequest{
		Spec:    cluster.Default(4),
		Job:     job,
		NumJobs: 1 + rng.Intn(3),
		Nodes:   nodes,
	}
	if rng.Intn(2) == 0 {
		req.BlockSizesMB = []float64{64, 128}
	}
	if rng.Intn(3) == 0 {
		req.Reducers = []int{1, 2}
	}
	return planProblem{req: req}
}

// TestPlanSearchMatchesGridProperty is the correctness contract of the
// tentpole: on randomized planning problems, the bisection + pruning search
// returns the same best plan (same cost, response time and feasibility) as
// the exhaustive grid. Deadlines are drawn from the grid's own response
// range so every regime — infeasible, frontier, all-feasible — is hit.
func TestPlanSearchMatchesGridProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		prob := randomPlanProblem(t, rng)

		// Grid reference, fresh service.
		gridReq := prob.req
		gridReq.Exhaustive = true
		gridReq.DeadlineSec = 1 // any positive value; replaced below
		gridSvc := New(Options{Workers: 4})
		ref, err := gridSvc.Plan(context.Background(), gridReq)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Strategy != StrategyGrid {
			t.Fatalf("exhaustive plan used strategy %q", ref.Strategy)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range ref.Candidates {
			if c.Err != "" {
				t.Fatalf("trial %d: grid candidate failed: %s", trial, c.Err)
			}
			lo = math.Min(lo, c.ResponseTime)
			hi = math.Max(hi, c.ResponseTime)
		}

		for _, q := range []float64{-0.05, 0.1, 0.35, 0.6, 0.9, 1.05} {
			deadline := lo + q*(hi-lo)
			if deadline <= 0 {
				deadline = lo * 0.9
			}
			gridReq.DeadlineSec = deadline
			want, err := gridSvc.Plan(context.Background(), gridReq)
			if err != nil {
				t.Fatal(err)
			}

			searchReq := prob.req
			searchReq.DeadlineSec = deadline
			searchSvc := New(Options{Workers: 4})
			got, err := searchSvc.Plan(context.Background(), searchReq)
			if err != nil {
				t.Fatal(err)
			}
			if got.Strategy != StrategySearch {
				t.Fatalf("trial %d: deadline plan used strategy %q", trial, got.Strategy)
			}

			if (want.Best == nil) != (got.Best == nil) {
				t.Errorf("trial %d deadline %.2f: grid best %+v, search best %+v",
					trial, deadline, want.Best, got.Best)
				continue
			}
			if want.Best == nil {
				continue
			}
			// Same objective value: cost, speed, feasibility — within the
			// chained-solve tolerance: the search's axis walks solve their
			// misses chained, so its predictions may differ from the
			// grid's cold ones by up to 1e-6 relative (the core contract;
			// observed deviations are ~1e-13). Identity may additionally
			// differ on exact cost+response ties across combos.
			const searchTol = 1e-6
			relDiff := func(a, b float64) float64 {
				if b == 0 {
					return math.Abs(a - b)
				}
				return math.Abs(a-b) / math.Abs(b)
			}
			if relDiff(got.Best.NodeSeconds, want.Best.NodeSeconds) > searchTol ||
				relDiff(got.Best.ResponseTime, want.Best.ResponseTime) > searchTol ||
				!got.Best.Feasible {
				t.Errorf("trial %d deadline %.2f:\n  grid   best %+v\n  search best %+v",
					trial, deadline, *want.Best, *got.Best)
			}
			if len(got.Candidates)+got.Pruned != len(want.Candidates) {
				t.Errorf("trial %d: search candidates %d + pruned %d != grid %d",
					trial, len(got.Candidates), got.Pruned, len(want.Candidates))
			}
		}
	}
}

// TestPlanSearchSavesPredictions pins the headline win: a representative
// deadline query over a wide node axis must run at least 2x fewer model
// evaluations than the grid.
func TestPlanSearchSavesPredictions(t *testing.T) {
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, 32)
	for i := range nodes {
		nodes[i] = 2 + i
	}
	base := PlanRequest{Spec: cluster.Default(4), Job: job, Nodes: nodes}

	// Find a mid-range deadline from an exhaustive pass.
	gridSvc := New(Options{Workers: 4})
	ex := base
	ex.Exhaustive = true
	ex.DeadlineSec = 1
	ref, err := gridSvc.Plan(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range ref.Candidates {
		lo, hi = math.Min(lo, c.ResponseTime), math.Max(hi, c.ResponseTime)
	}
	deadline := (lo + hi) / 2
	gridMisses := gridSvc.Metrics().CacheMisses

	searchSvc := New(Options{Workers: 4})
	sr := base
	sr.DeadlineSec = deadline
	resp, err := searchSvc.Plan(context.Background(), sr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategySearch || resp.Best == nil {
		t.Fatalf("strategy=%q best=%v", resp.Strategy, resp.Best)
	}
	searchMisses := searchSvc.Metrics().CacheMisses
	t.Logf("axis=%d: grid %d model runs, search %d (pruned %d)", len(nodes), gridMisses, searchMisses, resp.Pruned)
	if searchMisses*2 > gridMisses {
		t.Errorf("search ran %d model evaluations, want <= half of grid's %d", searchMisses, gridMisses)
	}
}

func TestPlanExhaustiveFlagForcesGrid(t *testing.T) {
	job, err := workload.NewJob(0, 512, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{
		Spec: cluster.Default(4), Job: job,
		Nodes:       []int{2, 4, 6, 8, 10, 12},
		DeadlineSec: 1e9,
		Exhaustive:  true,
	}
	s := New(Options{Workers: 4})
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyGrid || resp.Evaluated != 6 || resp.Pruned != 0 {
		t.Errorf("strategy=%q evaluated=%d pruned=%d", resp.Strategy, resp.Evaluated, resp.Pruned)
	}
}

// A predict walk along a node axis — the planner's bisection path — accounts
// each miss exactly once: the service counters and the request trace
// accrue the sum of the per-prediction inner/outer counts, and an
// identical replay is served entirely from the cache with every counter
// frozen.
func TestPredictEvalChainCounters(t *testing.T) {
	job, err := workload.NewJob(0, 2*1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 4})
	walk := func(tr *obs.Trace) []PredictResponse {
		ctx := obs.WithTrace(context.Background(), tr)
		var out []PredictResponse
		for _, n := range []int{4, 6, 8, 10, 12} {
			pr, err := s.predict(ctx, PredictRequest{Spec: cluster.Default(n), Job: job, NumJobs: 3})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pr)
		}
		return out
	}

	tr := obs.NewTrace("walk")
	got := walk(tr)
	m := s.Metrics()
	if m.CacheMisses != int64(len(got)) || m.CacheHits != 0 {
		t.Errorf("walk: misses=%d hits=%d, want %d/0", m.CacheMisses, m.CacheHits, len(got))
	}
	var wantInner, wantOuter, wantCells int64
	for i, pr := range got {
		if pr.Cached {
			t.Errorf("req %d: fresh walk reported cached", i)
		}
		wantInner += int64(pr.Prediction.InnerIterations)
		wantCells += int64(pr.Prediction.Cells)
		wantOuter += int64(pr.Prediction.Iterations)
	}
	if m.ModelInnerIterations != wantInner || m.ModelOuterIterations != wantOuter {
		t.Errorf("service counters inner=%d outer=%d, want %d/%d (sum of per-prediction counts)",
			m.ModelInnerIterations, m.ModelOuterIterations, wantInner, wantOuter)
	}
	if tr.Counter(obs.CounterInnerIterations) != wantInner || tr.Counter(obs.CounterOuterIterations) != wantOuter ||
		tr.Counter(obs.CounterPredicts) != int64(len(got)) {
		t.Errorf("trace counters inner=%d outer=%d predicts=%d, want %d/%d/%d",
			tr.Counter(obs.CounterInnerIterations), tr.Counter(obs.CounterOuterIterations),
			tr.Counter(obs.CounterPredicts), wantInner, wantOuter, len(got))
	}
	if c := tr.Counter(obs.CounterCells); wantCells == 0 || c != wantCells {
		t.Errorf("trace cells counter %d, want %d (sum of per-prediction cells)", c, wantCells)
	}

	// Replay: every entry must come from the cache with counters frozen.
	trAgain := obs.NewTrace("replay")
	again := walk(trAgain)
	m2 := s.Metrics()
	for i, pr := range again {
		if !pr.Cached {
			t.Errorf("replay req %d not served from cache", i)
		}
		if pr.Prediction.ResponseTime != got[i].Prediction.ResponseTime {
			t.Errorf("replay req %d: %v != %v", i, pr.Prediction.ResponseTime, got[i].Prediction.ResponseTime)
		}
	}
	if m2.ModelInnerIterations != m.ModelInnerIterations || m2.ModelOuterIterations != m.ModelOuterIterations ||
		m2.CacheMisses != m.CacheMisses || m2.CacheHits != m.CacheHits+int64(len(again)) {
		t.Errorf("replay moved counters: inner %d→%d outer %d→%d misses %d→%d hits %d→%d",
			m.ModelInnerIterations, m2.ModelInnerIterations, m.ModelOuterIterations, m2.ModelOuterIterations,
			m.CacheMisses, m2.CacheMisses, m.CacheHits, m2.CacheHits)
	}
	if trAgain.Counter(obs.CounterPredicts) != 0 || trAgain.Counter(obs.CounterCacheHits) != int64(len(again)) {
		t.Errorf("replay trace predicts=%d hits=%d, want 0/%d",
			trAgain.Counter(obs.CounterPredicts), trAgain.Counter(obs.CounterCacheHits), len(again))
	}
}

// Concurrent deadline plans over overlapping axes hammer the pooled
// Predictors, the bisection and the result table from many
// goroutines at once — the -race CI step runs this to hunt data races in
// the planner's evaluation path.
func TestPlanSearchConcurrent(t *testing.T) {
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, 16)
	for i := range nodes {
		nodes[i] = 2 + i
	}
	s := New(Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	resps := make([]PlanResponse, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := PlanRequest{
				Spec: cluster.Default(4), Job: job, NumJobs: 1 + g%3,
				Nodes:       nodes,
				DeadlineSec: 200 + 40*float64(g%4),
			}
			resps[g], errs[g] = s.Plan(context.Background(), req)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if resps[g].Strategy != StrategySearch {
			t.Errorf("goroutine %d: strategy %q", g, resps[g].Strategy)
		}
		for _, c := range resps[g].Candidates {
			if c.Err != "" {
				t.Errorf("goroutine %d: candidate failed: %s", g, c.Err)
			}
		}
	}
}
