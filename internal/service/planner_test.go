package service

import (
	"context"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

func planBase(t *testing.T) PlanRequest {
	t.Helper()
	job, err := workload.NewJob(0, 2*1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	return PlanRequest{Spec: cluster.Default(4), Job: job}
}

func TestPlanCapacityQuestion(t *testing.T) {
	// The capacity-planning example as one API call: smallest cluster
	// meeting a deadline. Larger clusters are faster, so the cheapest
	// feasible candidate must be the smallest feasible node count.
	s := New(Options{Workers: 4})
	req := planBase(t)
	req.Nodes = []int{2, 4, 6, 8}

	// First pass without a deadline: fastest candidate wins.
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 4 || resp.Evaluated != 4 {
		t.Fatalf("candidates = %d evaluated = %d", len(resp.Candidates), resp.Evaluated)
	}
	if resp.Best == nil {
		t.Fatal("no best without deadline")
	}
	for _, c := range resp.Candidates {
		if c.ResponseTime < resp.Best.ResponseTime {
			t.Errorf("best (%v s) is not fastest (%v s at %d nodes)",
				resp.Best.ResponseTime, c.ResponseTime, c.Nodes)
		}
		if c.Feasible {
			t.Error("feasible set without a deadline")
		}
	}

	// Now with a deadline between the slowest and fastest candidate.
	slowest, fastest := 0.0, 1e18
	for _, c := range resp.Candidates {
		if c.ResponseTime > slowest {
			slowest = c.ResponseTime
		}
		if c.ResponseTime < fastest {
			fastest = c.ResponseTime
		}
	}
	if !(fastest < slowest) {
		t.Fatalf("degenerate sweep: %v .. %v", fastest, slowest)
	}
	req.DeadlineSec = (slowest + fastest) / 2
	resp2, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Best == nil {
		t.Fatal("no feasible candidate found")
	}
	if !resp2.Best.Feasible {
		t.Error("best not marked feasible")
	}
	for _, c := range resp2.Candidates {
		if c.Feasible && c.NodeSeconds < resp2.Best.NodeSeconds {
			t.Errorf("best costs %v node-s but %d nodes cost %v",
				resp2.Best.NodeSeconds, c.Nodes, c.NodeSeconds)
		}
	}

	// The second plan re-used every prediction from the first.
	for _, c := range resp2.Candidates {
		if !c.Cached {
			t.Errorf("candidate %d nodes recomputed despite warm cache", c.Nodes)
		}
	}
}

func TestPlanImpossibleDeadline(t *testing.T) {
	s := New(Options{Workers: 4})
	req := planBase(t)
	req.Nodes = []int{2, 4}
	req.DeadlineSec = 0.001
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Best != nil {
		t.Errorf("impossible deadline produced best = %+v", resp.Best)
	}
	if resp.Evaluated != 2 {
		t.Errorf("evaluated = %d", resp.Evaluated)
	}
}

func TestPlanMultiAxisGrid(t *testing.T) {
	s := New(Options{Workers: 4})
	req := planBase(t)
	req.Nodes = []int{2, 4}
	req.BlockSizesMB = []float64{64, 128}
	req.Reducers = []int{2, 4}
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 8 {
		t.Fatalf("grid size = %d, want 8", len(resp.Candidates))
	}
	distinct := map[float64]bool{}
	for _, c := range resp.Candidates {
		if c.Err != "" {
			t.Errorf("candidate failed: %+v", c)
		}
		distinct[c.ResponseTime] = true
	}
	if len(distinct) < 4 {
		t.Errorf("grid collapsed to %d distinct responses", len(distinct))
	}
}

func TestPlanPolicyAxisSharesModelPredictions(t *testing.T) {
	// Model-backed candidates differing only in policy must collapse onto
	// one cached prediction each.
	s := New(Options{Workers: 4})
	req := planBase(t)
	req.Policies = []yarn.Policy{yarn.PolicyFIFO, yarn.PolicyFair}
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(resp.Candidates))
	}
	if resp.Candidates[0].ResponseTime != resp.Candidates[1].ResponseTime {
		t.Error("model-backed candidates diverged across policies")
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Errorf("model ran %d times for a policy-only grid", m.CacheMisses)
	}
}

func TestPlanSimulatorBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed plan in -short mode")
	}
	s := New(Options{Workers: 4})
	job, err := workload.NewJob(0, 256, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Plan(context.Background(), PlanRequest{
		Spec: cluster.Default(2), Job: job,
		Nodes:        []int{2, 4},
		UseSimulator: true, Seed: 1, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Evaluated != 2 {
		t.Fatalf("evaluated = %d: %+v", resp.Evaluated, resp.Candidates)
	}
	for _, c := range resp.Candidates {
		if c.ResponseTime <= 0 {
			t.Errorf("candidate %+v", c)
		}
	}
	if s.Metrics().SimRuns != 2 {
		t.Errorf("sim runs = %d, want 2", s.Metrics().SimRuns)
	}
}

func TestPlanValidation(t *testing.T) {
	s := New(Options{})
	req := planBase(t)
	req.Nodes = []int{0}
	if _, err := s.Plan(context.Background(), req); err == nil {
		t.Error("zero node count accepted")
	}
	req = planBase(t)
	req.DeadlineSec = -1
	if _, err := s.Plan(context.Background(), req); err == nil {
		t.Error("negative deadline accepted")
	}
	req = planBase(t)
	req.Nodes = make([]int, maxPlanCandidates+1)
	for i := range req.Nodes {
		req.Nodes[i] = i + 1
	}
	if _, err := s.Plan(context.Background(), req); err == nil {
		t.Error("oversized grid accepted")
	}
}

// deadlinePlan is a 15-point deadline query over a 1 GB, single-reducer
// job: a plan the search strategy bisects.
func deadlinePlan(t *testing.T) PlanRequest {
	t.Helper()
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	return PlanRequest{Spec: cluster.Default(4), Job: job, DeadlineSec: 150,
		Nodes: []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}
}

// TestPlanCandidatesCounted holds both strategies to one count: the
// request trace's planCandidates is the number of candidates the plan
// evaluated, pruned points excluded.
func TestPlanCandidatesCounted(t *testing.T) {
	s := New(Options{Workers: 2})
	for _, exhaustive := range []bool{false, true} {
		req := deadlinePlan(t)
		req.Exhaustive = exhaustive
		var tr obs.Trace
		resp, err := s.Plan(obs.WithTrace(context.Background(), &tr), req)
		if err != nil {
			t.Fatal(err)
		}
		if exhaustive != (resp.Pruned == 0) {
			t.Fatalf("exhaustive %v: strategy %s pruned %d", exhaustive, resp.Strategy, resp.Pruned)
		}
		if got := tr.Counter(obs.CounterPlanCandidates); got != int64(len(resp.Candidates)) || got == 0 {
			t.Errorf("%s plan: planCandidates = %d, want its %d candidates", resp.Strategy, got, len(resp.Candidates))
		}
	}
}

// TestPlanUnconvergedAxisNotBisected caps the model below convergence
// (the maxIterations seam): an answer that stopped before its ε-test has
// no trusted place on the response curve, so the deadline search must
// evaluate the whole axis instead of pruning on it.
func TestPlanUnconvergedAxisNotBisected(t *testing.T) {
	s := New(Options{Workers: 2})
	s.maxIterations = 1
	req := deadlinePlan(t)
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategySearch || resp.Pruned != 0 || len(resp.Candidates) != len(req.Nodes) {
		t.Errorf("capped plan: strategy %s, %d candidates, %d pruned; want search, %d, 0",
			resp.Strategy, len(resp.Candidates), resp.Pruned, len(req.Nodes))
	}
}
