package service

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/yarn"
)

// diamondWorkflow builds a 4-stage diamond (src → left/right → join) of
// small jobs; the middle legs are identical so they form one contending
// wave on a shared cluster.
func diamondWorkflow(t *testing.T) *Workflow {
	t.Helper()
	return &Workflow{
		Stages: []WorkflowStage{
			{Name: "src", Job: testJob(t, 1024, 4)},
			{Name: "left", Job: testJob(t, 2048, 4)},
			{Name: "right", Job: testJob(t, 2048, 4)},
			{Name: "join", Job: testJob(t, 512, 2)},
		},
		Edges: []workflow.Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
}

// chainWorkflow builds a K-stage chain of identical single-reducer stages.
func chainWorkflow(t *testing.T, k int) *Workflow {
	t.Helper()
	wf := &Workflow{}
	for i := 0; i < k; i++ {
		wf.Stages = append(wf.Stages, WorkflowStage{
			Name: fmt.Sprintf("s%d", i), Job: testJob(t, 1024, 1),
		})
		if i > 0 {
			wf.Edges = append(wf.Edges, workflow.Edge{
				From: fmt.Sprintf("s%d", i-1), To: fmt.Sprintf("s%d", i),
			})
		}
	}
	return wf
}

// TestWorkflowSingleStageMatchesPredict pins the degenerate case: a
// one-stage workflow is exactly the single-job predict for its job — same
// bits, same cache entry.
func TestWorkflowSingleStageMatchesPredict(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 64})
	spec := cluster.Default(4)
	job := testJob(t, 1024, 4)

	wfResp, err := s.Predict(context.Background(), PredictRequest{
		Spec: spec,
		Workflow: &Workflow{
			Stages: []WorkflowStage{{Name: "only", Job: job}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wfResp.Workflow == nil || len(wfResp.Workflow.Stages) != 1 {
		t.Fatalf("workflow report = %+v", wfResp.Workflow)
	}

	plain, err := s.Predict(context.Background(), PredictRequest{Spec: spec, Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Prediction.ResponseTime != wfResp.Prediction.ResponseTime {
		t.Errorf("single-stage workflow %v != plain predict %v",
			wfResp.Prediction.ResponseTime, plain.Prediction.ResponseTime)
	}
	// The stage rode the plain predict key, so the follow-up plain request
	// must be a cache hit on the stage's entry.
	if !plain.Cached {
		t.Error("plain predict after the one-stage workflow missed the stage's cache entry")
	}
	if wfResp.Prediction.ResponseTime != wfResp.Workflow.Stages[0].ResponseTime {
		t.Errorf("makespan %v != sole stage response %v",
			wfResp.Prediction.ResponseTime, wfResp.Workflow.Stages[0].ResponseTime)
	}
}

// TestWorkflowDiamondReport checks the composed response: wave concurrency
// on the parallel legs, the critical-path schedule, and whole-workflow
// caching on repeat.
func TestWorkflowDiamondReport(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 64})
	req := PredictRequest{Spec: cluster.Default(4), Workflow: diamondWorkflow(t)}

	resp, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wf := resp.Workflow
	if wf == nil || len(wf.Stages) != 4 {
		t.Fatalf("workflow report = %+v", wf)
	}
	for i, wantConc := range []int{1, 2, 2, 1} {
		if wf.Stages[i].Concurrency != wantConc {
			t.Errorf("stage %s concurrency = %d, want %d",
				wf.Stages[i].Name, wf.Stages[i].Concurrency, wantConc)
		}
	}
	src, left, right, join := wf.Stages[0], wf.Stages[1], wf.Stages[2], wf.Stages[3]
	if src.Start != 0 || !src.Critical {
		t.Errorf("source stage: start %v critical %v", src.Start, src.Critical)
	}
	if left.Start != src.Finish || right.Start != src.Finish {
		t.Errorf("middle starts %v/%v != source finish %v", left.Start, right.Start, src.Finish)
	}
	wantJoin := math.Max(left.Finish, right.Finish)
	if join.Start != wantJoin {
		t.Errorf("join start %v != slowest middle finish %v", join.Start, wantJoin)
	}
	if wf.ResponseTime != join.Finish || resp.Prediction.ResponseTime != wf.ResponseTime {
		t.Errorf("makespan %v vs join finish %v vs prediction %v",
			wf.ResponseTime, join.Finish, resp.Prediction.ResponseTime)
	}
	if len(wf.CriticalPath) != 3 || wf.CriticalPath[0] != "src" || wf.CriticalPath[2] != "join" {
		t.Errorf("critical path = %v", wf.CriticalPath)
	}
	if wf.Tree != "S(S(j0,P(j1,j2)),j3)" {
		t.Errorf("stage tree = %q", wf.Tree)
	}

	again, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat workflow request was not served from the workflow cache")
	}
	if again.Prediction.ResponseTime != resp.Prediction.ResponseTime {
		t.Errorf("cached workflow drifted: %v vs %v",
			again.Prediction.ResponseTime, resp.Prediction.ResponseTime)
	}
	if s.Metrics().WorkflowRequests != 2 {
		t.Errorf("workflowRequests = %d, want 2", s.Metrics().WorkflowRequests)
	}
}

// TestWorkflowRejectsMalformedRequests covers the structural 400s: cycles,
// NumJobs with a workflow, and the partial-profile-coverage rule
// (the fix this PR pins: these were surfacing as internal errors).
func TestWorkflowRejectsMalformedRequests(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	base := func(t *testing.T) *Workflow { return chainWorkflow(t, 2) }

	cyclic := base(t)
	cyclic.Edges = append(cyclic.Edges, workflow.Edge{From: "s1", To: "s0"})
	partial := base(t)
	partial.Stages[1].Profile = "only-this-stage"

	cases := []struct {
		name string
		req  PredictRequest
		want string
	}{
		{"cycle", PredictRequest{Spec: cluster.Default(2), Workflow: cyclic}, "cycle"},
		{"numJobs", PredictRequest{Spec: cluster.Default(2), Workflow: base(t), NumJobs: 2}, "derived from the workflow"},
		{"partialProfiles", PredictRequest{Spec: cluster.Default(2), Workflow: partial}, "cover only stages s1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Predict(context.Background(), tc.req)
			if err == nil {
				t.Fatal("malformed workflow accepted")
			}
			if !IsInvalidRequest(err) {
				t.Errorf("error is not an invalid-request (would be HTTP 500): %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The partial-coverage message names both sides of the split.
	_, err := s.Predict(context.Background(), PredictRequest{Spec: cluster.Default(2), Workflow: partial})
	if err == nil || !strings.Contains(err.Error(), "s0") || !strings.Contains(err.Error(), "s1") {
		t.Errorf("partial-coverage error should name covered and uncovered stages: %v", err)
	}
}

// TestWorkflowEdgesDistinguishCacheKeys pins the key rule: the same stages
// under different shapes never alias, and workflow keys never collide with
// the classic predict key space.
func TestWorkflowEdgesDistinguishCacheKeys(t *testing.T) {
	dagChain := workflow.Chain("a", "b")
	dagFork := &workflow.DAG{Stages: []string{"a", "b"}}
	stageReqs := []PredictRequest{
		{Spec: cluster.Default(2), Job: testJob(t, 512, 1), NumJobs: 1},
		{Spec: cluster.Default(2), Job: testJob(t, 512, 1), NumJobs: 1},
	}
	kChain := workflowPredictKey(dagChain, stageReqs)
	kFork := workflowPredictKey(dagFork, stageReqs)
	if kChain == kFork {
		t.Error("chain and fork over identical stages share a cache key")
	}
	if k := predictKey(stageReqs[0]); k == kChain || k == kFork {
		t.Error("workflow key collides with the single-job predict key")
	}
}

// TestWorkflowPlanSearchModelRuns is the PR's efficiency gate: a deadline
// plan over a 20-stage identical chain must cost no more than 3x the model
// runs of the same plan for a single job — per-stage cache sharing does the
// work, not 20x the solves.
func TestWorkflowPlanSearchModelRuns(t *testing.T) {
	nodesAxis := []int{2, 3, 4, 6, 8, 12}
	job := testJob(t, 1024, 1)

	// Discover a mid-axis response time on a throwaway service so the
	// deadline lands inside the axis and the bisection has a real frontier.
	probe := New(Options{Workers: 2, CacheSize: 8})
	mid, err := probe.Predict(context.Background(), PredictRequest{Spec: cluster.Default(6), Job: job})
	if err != nil {
		t.Fatal(err)
	}
	deadline := mid.Prediction.ResponseTime * 1.02

	modelRuns := func(m Metrics) int64 {
		return int64(m.StageDurations[obs.StageModelSolve.String()].Count)
	}

	single := New(Options{Workers: 4, CacheSize: 256})
	sResp, err := single.Plan(context.Background(), PlanRequest{
		Spec: cluster.Default(2), Job: job, Nodes: nodesAxis, DeadlineSec: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sResp.Strategy != StrategySearch {
		t.Fatalf("single-job plan strategy = %q, want search", sResp.Strategy)
	}
	sm := single.Metrics()

	const k = 20
	chain := New(Options{Workers: 4, CacheSize: 256})
	cResp, err := chain.Plan(context.Background(), PlanRequest{
		Spec: cluster.Default(2), Workflow: chainWorkflow(t, k), Nodes: nodesAxis,
		DeadlineSec: deadline * k, // chain makespan = k x the stage response
	})
	if err != nil {
		t.Fatal(err)
	}
	if cResp.Strategy != StrategySearch {
		t.Fatalf("workflow plan strategy = %q, want search", cResp.Strategy)
	}
	if cResp.Best == nil {
		t.Fatal("workflow deadline plan found no feasible candidate")
	}
	cm := chain.Metrics()

	if sruns, cruns := modelRuns(sm), modelRuns(cm); sruns == 0 || cruns > 3*sruns {
		t.Errorf("model solves: %d-stage chain used %d vs single-job %d (budget 3x)", k, cruns, sruns)
	}
	if sm.ModelOuterIterations == 0 || cm.ModelOuterIterations > 3*sm.ModelOuterIterations {
		t.Errorf("outer iterations: chain %d vs single %d (budget 3x)",
			cm.ModelOuterIterations, sm.ModelOuterIterations)
	}
	// The identical stages must actually share per-stage entries: one miss
	// plus k-1 hits per computed candidate, so hits dominate misses.
	if cm.CacheHits <= cm.CacheMisses {
		t.Errorf("chain plan: %d hits / %d misses — stage cache sharing is not engaging",
			cm.CacheHits, cm.CacheMisses)
	}
	// The chain's feasibility frontier is the same node count as the
	// single job's (the makespan is k x the per-stage response).
	if sResp.Best == nil || cResp.Best.Nodes != sResp.Best.Nodes {
		t.Errorf("chain best = %+v, single best = %+v", cResp.Best, sResp.Best)
	}
}

// TestWorkflowPlanConcurrent drives mixed workflow plan searches and grids
// from many goroutines on one service — the -race CI step runs this to
// check the shared pool, cache and metrics paths under contention.
func TestWorkflowPlanConcurrent(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 256})
	diamond := diamondWorkflow(t)
	chain := chainWorkflow(t, 6)
	nodesAxis := []int{2, 3, 4, 6, 8, 12}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := PlanRequest{Spec: cluster.Default(2), Workflow: diamond, Nodes: nodesAxis}
			if g%2 == 1 {
				// Single-reducer chain with a deadline rides the search path.
				req.Workflow = chain
				req.DeadlineSec = 1e6
			}
			resp, err := s.Plan(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Candidates) == 0 || resp.Best == nil {
				errs <- fmt.Errorf("goroutine %d: empty plan %+v", g, resp)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().WorkflowRequests; got != 8 {
		t.Errorf("workflowRequests = %d, want 8", got)
	}
}

// TestWorkflowPlanRejectsForeignAxes pins the plan-surface rule: job-shape
// axes, simulator backing and quantile judging are 400s for workflow plans.
func TestWorkflowPlanRejectsForeignAxes(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	base := PlanRequest{Spec: cluster.Default(2), Workflow: chainWorkflow(t, 2), Nodes: []int{2, 4}}

	cases := []struct {
		name   string
		mutate func(*PlanRequest)
	}{
		{"reducers", func(r *PlanRequest) { r.Reducers = []int{2, 4} }},
		{"blockSizes", func(r *PlanRequest) { r.BlockSizesMB = []float64{64, 128} }},
		{"policies", func(r *PlanRequest) { r.Policies = []yarn.Policy{yarn.PolicyFIFO, yarn.PolicyFair} }},
		{"simulator", func(r *PlanRequest) { r.UseSimulator = true }},
		{"quantile", func(r *PlanRequest) { r.Quantile = 0.95 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			tc.mutate(&req)
			_, err := s.Plan(context.Background(), req)
			if err == nil {
				t.Fatal("foreign axis accepted on a workflow plan")
			}
			if !IsInvalidRequest(err) {
				t.Errorf("error is not an invalid-request (would be HTTP 500): %v", err)
			}
		})
	}
}

// TestWorkflowHTTPRoundTrip exercises the wire format end to end: a
// diamond predict with its workflow report, a workflow plan sweep, and the
// structured 400s for a cyclic DAG and partial profile coverage.
func TestWorkflowHTTPRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	diamond := `"workflow": {
		"stages": [
			{"name": "src",   "job": {"inputMB": 1024, "reduces": 4}},
			{"name": "left",  "job": {"inputMB": 2048, "reduces": 4}},
			{"name": "right", "job": {"inputMB": 2048, "reduces": 4}},
			{"name": "join",  "job": {"inputMB": 512,  "reduces": 2}}
		],
		"edges": [
			{"from": "src", "to": "left"}, {"from": "src", "to": "right"},
			{"from": "left", "to": "join"}, {"from": "right", "to": "join"}
		]
	}`

	status, body := postJSON(t, ts.URL+"/v1/predict", `{"cluster": {"nodes": 4}, `+diamond+`}`)
	if status != 200 {
		t.Fatalf("predict status = %d: %v", status, body)
	}
	wf, ok := body["workflow"].(map[string]any)
	if !ok {
		t.Fatalf("no workflow block in response: %v", body)
	}
	stages, _ := wf["stages"].([]any)
	if len(stages) != 4 {
		t.Fatalf("stages = %v", wf["stages"])
	}
	first := stages[0].(map[string]any)
	if first["name"] != "src" || first["critical"] != true {
		t.Errorf("first stage = %v", first)
	}
	if path, _ := wf["criticalPath"].([]any); len(path) != 3 {
		t.Errorf("criticalPath = %v", wf["criticalPath"])
	}
	if rt, _ := body["responseTime"].(float64); rt <= 0 || rt != wf["responseTime"] {
		t.Errorf("responseTime %v vs workflow %v", body["responseTime"], wf["responseTime"])
	}
	// A workflow-less predict keeps the classic shape: no workflow key at
	// all (the goldens pin the exact bytes; this pins the field's absence).
	status, plain := postJSON(t, ts.URL+"/v1/predict", `{"cluster": {"nodes": 4}, "job": {"inputMB": 1024, "reduces": 4}}`)
	if status != 200 {
		t.Fatalf("plain predict status = %d: %v", status, plain)
	}
	if _, present := plain["workflow"]; present {
		t.Errorf("single-job predict response grew a workflow field: %v", plain)
	}

	status, plan := postJSON(t, ts.URL+"/v1/plan",
		`{"cluster": {"nodes": 2}, "nodes": [2, 4, 8], `+diamond+`}`)
	if status != 200 {
		t.Fatalf("plan status = %d: %v", status, plan)
	}
	if cands, _ := plan["candidates"].([]any); len(cands) != 3 {
		t.Errorf("plan candidates = %v", plan["candidates"])
	}
	if best, _ := plan["best"].(map[string]any); best == nil || best["nodes"] != 8.0 {
		t.Errorf("plan best = %v", plan["best"])
	}

	status, errBody := postJSON(t, ts.URL+"/v1/predict", `{"cluster": {"nodes": 2}, "workflow": {
		"stages": [{"name": "a", "job": {"inputMB": 256}}, {"name": "b", "job": {"inputMB": 256}}],
		"edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}]
	}}`)
	if status != 400 {
		t.Fatalf("cyclic workflow: status = %d, want 400: %v", status, errBody)
	}
	if msg, _ := errBody["error"].(string); !strings.Contains(msg, "cycle") {
		t.Errorf("cyclic workflow error = %v", errBody)
	}

	status, errBody = postJSON(t, ts.URL+"/v1/predict", `{"cluster": {"nodes": 2}, "workflow": {
		"stages": [{"name": "a", "job": {"inputMB": 256}},
		           {"name": "b", "job": {"inputMB": 256}, "profile": "prod"}],
		"edges": [{"from": "a", "to": "b"}]
	}}`)
	if status != 400 {
		t.Fatalf("partial profiles: status = %d, want 400: %v", status, errBody)
	}
	if msg, _ := errBody["error"].(string); !strings.Contains(msg, "cover only stages b") {
		t.Errorf("partial-profile error = %v", errBody)
	}

	status, errBody = postJSON(t, ts.URL+"/v1/plan",
		`{"cluster": {"nodes": 2}, "nodes": [2, 4], "reducers": [2, 4], `+diamond+`}`)
	if status != 400 {
		t.Fatalf("reducers axis on workflow plan: status = %d, want 400: %v", status, errBody)
	}
}

// TestWorkflowPlanRejectsInvalidWorkflows: a workflow plan resolves its
// workflow once, up front, so every defect a workflow predict rejects is an
// invalid request (HTTP 400) for the whole plan, not an error on every
// candidate.
func TestWorkflowPlanRejectsInvalidWorkflows(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	cyclic := chainWorkflow(t, 2)
	cyclic.Edges = append(cyclic.Edges, workflow.Edge{From: "s1", To: "s0"})
	partial := chainWorkflow(t, 2)
	partial.Stages[1].Profile = "only-this-stage"

	cases := []struct {
		name   string
		mutate func(*PlanRequest)
		want   string
	}{
		{"cycle", func(r *PlanRequest) { r.Workflow = cyclic }, "cycle"},
		{"tooManyStages", func(r *PlanRequest) { r.Workflow = chainWorkflow(t, MaxNumJobs+1) }, "limit"},
		{"numJobs", func(r *PlanRequest) { r.NumJobs = 2 }, "derived from the workflow"},
		{"partialProfiles", func(r *PlanRequest) { r.Workflow = partial }, "cover only stages s1"},
		{"unknownProfile", func(r *PlanRequest) { r.Profile = "nope" }, "nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := PlanRequest{Spec: cluster.Default(2), Workflow: chainWorkflow(t, 2), Nodes: []int{2, 4}}
			tc.mutate(&req)
			resp, err := s.Plan(context.Background(), req)
			if err == nil {
				t.Fatalf("invalid workflow plan answered %+v", resp)
			}
			if !IsInvalidRequest(err) {
				t.Errorf("error is not an invalid-request (would be HTTP 500): %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("http", func(t *testing.T) {
		_, ts := newTestServer(t)
		status, body := postJSON(t, ts.URL+"/v1/plan", `{"cluster": {"nodes": 2}, "nodes": [2, 4], "workflow": {
			"stages": [{"name": "a", "job": {"inputMB": 256}}, {"name": "b", "job": {"inputMB": 256}}],
			"edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}]
		}}`)
		if status != 400 {
			t.Fatalf("cyclic workflow plan: status = %d, want 400: %v", status, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "cycle") {
			t.Errorf("cyclic workflow plan error = %v", body)
		}
	})
}

// TestWorkflowPlanResolvesProfileOnce: a profiled workflow plan resolves
// its profile once — one snapshot for every stage of every candidate.
func TestWorkflowPlanResolvesProfileOnce(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 256})
	calibrate(t, s, "wc", 512, 1)
	resolves := func() int64 {
		return int64(s.Metrics().StageDurations[obs.StageProfileResolve.String()].Count)
	}
	before := resolves()
	resp, err := s.Plan(context.Background(), PlanRequest{
		Spec: cluster.Default(2), Workflow: chainWorkflow(t, 3), Profile: "wc", Nodes: []int{2, 4, 6, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Evaluated != 4 {
		t.Fatalf("plan evaluated %d of 4 candidates: %+v", resp.Evaluated, resp)
	}
	if got := resolves() - before; got != 1 {
		t.Errorf("profile_resolve ran %d times for a 3-stage x 4-node plan, want 1", got)
	}
}

// TestWorkflowPlanCandidateIsPredict: a workflow plan candidate is the
// workflow predict at the candidate's cluster — the same bits, and the
// predict is a hit on the entry the plan filled — on the grid and on the
// search's chained walk alike.
func TestWorkflowPlanCandidateIsPredict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wf       *Workflow
		deadline float64
		strategy string
	}{
		{"grid", diamondWorkflow(t), 0, StrategyGrid},
		{"search", chainWorkflow(t, 4), 1e6, StrategySearch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 4, CacheSize: 256})
			spec := cluster.Default(2)
			plan, err := s.Plan(context.Background(), PlanRequest{
				Spec: spec, Workflow: tc.wf, Nodes: []int{2, 3, 4, 6, 8, 12}, DeadlineSec: tc.deadline,
			})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Strategy != tc.strategy || plan.Evaluated == 0 {
				t.Fatalf("plan strategy %q, %d evaluated", plan.Strategy, plan.Evaluated)
			}
			for _, c := range plan.Candidates {
				at := spec
				at.NumNodes = c.Nodes
				pr, err := s.Predict(context.Background(), PredictRequest{Spec: at, Workflow: tc.wf})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(pr.Prediction.ResponseTime) != math.Float64bits(c.ResponseTime) {
					t.Errorf("%d nodes: plan candidate %v, workflow predict %v", c.Nodes, c.ResponseTime, pr.Prediction.ResponseTime)
				}
				if !pr.Cached {
					t.Errorf("%d nodes: workflow predict missed the plan candidate's cache entry", c.Nodes)
				}
			}
		})
	}
}

// TestWorkflowPlanMultiReducerSearch: a workflow deadline plan that cannot
// bisect (a multi-reducer stage) follows the single-job rule — the search
// strategy with every point evaluated — and answers what the exhaustive
// grid answers.
func TestWorkflowPlanMultiReducerSearch(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 256})
	req := PlanRequest{Spec: cluster.Default(2), Workflow: diamondWorkflow(t), Nodes: []int{2, 3, 4, 6, 8, 12}}
	ex := req
	ex.Exhaustive = true
	ref, err := s.Plan(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline between the fastest and slowest candidate.
	lo, hi := math.Inf(1), 0.0
	for _, c := range ref.Candidates {
		lo, hi = math.Min(lo, c.ResponseTime), math.Max(hi, c.ResponseTime)
	}
	req.DeadlineSec = (lo + hi) / 2
	ex.DeadlineSec = req.DeadlineSec

	got, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != StrategySearch || got.Pruned != 0 {
		t.Fatalf("strategy %q pruned %d, want search with 0 pruned", got.Strategy, got.Pruned)
	}
	want, err := s.Plan(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if want.Strategy != StrategyGrid {
		t.Fatalf("exhaustive plan strategy %q", want.Strategy)
	}
	if got.Best == nil || want.Best == nil {
		t.Fatalf("best: search %v, grid %v", got.Best, want.Best)
	}
	// Both plans read the same cache entries; only the Cached flags differ.
	clearCached := func(cs []PlanCandidate) []PlanCandidate {
		out := append([]PlanCandidate(nil), cs...)
		for i := range out {
			out[i].Cached = false
		}
		return out
	}
	if !reflect.DeepEqual(clearCached(got.Candidates), clearCached(want.Candidates)) {
		t.Errorf("search candidates %+v\ngrid candidates %+v", got.Candidates, want.Candidates)
	}
	if b, w := clearCached([]PlanCandidate{*got.Best}), clearCached([]PlanCandidate{*want.Best}); !reflect.DeepEqual(b, w) {
		t.Errorf("search best %+v, grid best %+v", b[0], w[0])
	}
}
