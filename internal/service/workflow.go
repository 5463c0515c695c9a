package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
)

// This file serves DAG workflows: a request-level workflow block names job
// stages and precedence edges, each stage rides the same per-stage cache/
// singleflight/predictor path as a plain predict (so a workflow stage and
// an identical single-job request share one cache entry), and the composed
// critical-path result is cached under its own workflow key. Plans sweep
// the shared cluster axis with the composed makespan as the objective.

// Workflow is the request-level DAG block of Predict and Plan requests: one
// MapReduce job per named stage plus precedence edges between stage names.
type Workflow struct {
	// Stages declares the workflow's jobs in declaration order (which is
	// also the response's stage order).
	Stages []WorkflowStage
	// Edges are the cross-job precedence constraints: an edge makes its To
	// stage start only after its From stage finishes.
	Edges []workflow.Edge
}

// WorkflowStage is one job stage of a workflow block.
type WorkflowStage struct {
	// Name identifies the stage in edges and in the response; unique and
	// non-empty.
	Name string
	// Job is the stage's MapReduce job.
	Job workload.Job
	// Spec optionally gives the stage its own cluster (stage-local sizing);
	// nil inherits the request's cluster. Stages sharing a wave contend for
	// capacity only when they run on the same cluster.
	Spec *cluster.Spec
	// Profile optionally names a calibrated profile for this stage,
	// overriding the request-level Profile. Per-stage resolution rule:
	// a stage uses its own Profile when set, else the request's; a workflow
	// where some stages resolve a profile and others resolve none is
	// rejected as invalid (seed every stage or no stage).
	Profile string
}

// dag lifts the block's shape into the structural DAG type.
func (wf *Workflow) dag() *workflow.DAG {
	d := &workflow.DAG{Stages: make([]string, len(wf.Stages)), Edges: wf.Edges}
	for i, st := range wf.Stages {
		d.Stages[i] = st.Name
	}
	return d
}

// WorkflowStageReport is one stage's slice of a workflow response.
type WorkflowStageReport struct {
	// Name is the stage name from the request.
	Name string `json:"name"`
	// ResponseTime is the stage's predicted duration, priced at its wave
	// concurrency.
	ResponseTime float64 `json:"responseTime"`
	// Start, Finish and Slack are the stage's critical-path schedule: the
	// earliest start/finish offsets from workflow submission, and the total
	// float before the stage would move the makespan.
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"` // see Start
	Slack  float64 `json:"slack"`  // see Start
	// Critical reports zero slack — the stage sits on a longest path.
	Critical bool `json:"critical"`
	// Concurrency is the closed-network population the stage was priced at
	// (co-scheduled same-cluster stages of its wave, itself included).
	Concurrency int `json:"concurrency"`
	// Cached reports whether this stage's evaluation came from the cache.
	Cached bool `json:"cached"`
	// Profile names the calibrated profile that seeded the stage (empty for
	// none).
	Profile string `json:"profile,omitempty"`
}

// WorkflowReport is the workflow slice of a predict response.
type WorkflowReport struct {
	// ResponseTime is the workflow makespan: the critical path through the
	// stage DAG.
	ResponseTime float64 `json:"responseTime"`
	// Stages reports every stage in declaration order.
	Stages []WorkflowStageReport `json:"stages"`
	// CriticalPath lists one longest source-to-sink chain of stage names.
	CriticalPath []string `json:"criticalPath"`
	// Tree is the cross-job precedence tree over whole stages, rendered in
	// the paper's S/P notation (leaf jN = stage N).
	Tree string `json:"tree,omitempty"`
}

// workflowOutcome is the cached unit of one composed workflow evaluation:
// the client-facing report plus the aggregate prediction bookkeeping.
type workflowOutcome struct {
	report WorkflowReport
	pred   core.Prediction
}

// validateWorkflow structurally checks a workflow block and resolves it
// into the DAG and one per-stage PredictRequest (profile references
// resolved, wave concurrency priced in). Every defect returns a structured
// invalid-request error (HTTP 400), including the partial-profile rule.
func (s *Service) resolveWorkflow(ctx context.Context, req *PredictRequest) (*workflow.DAG, []PredictRequest, error) {
	wf := req.Workflow
	if len(wf.Stages) > MaxNumJobs {
		return nil, nil, invalid(fmt.Errorf("service: workflow has %d stages, limit %d", len(wf.Stages), MaxNumJobs))
	}
	if req.NumJobs > 1 {
		return nil, nil, invalid(errors.New("service: NumJobs is derived from the workflow's waves; set per-stage shape with edges instead"))
	}
	dag := wf.dag()
	if err := dag.Validate(); err != nil {
		return nil, nil, invalid(err)
	}

	// Per-stage profile resolution rule: stage Profile wins over the
	// request's; mixed coverage (some stages seeded, some not) is rejected
	// up front with the uncovered stages named.
	names := make([]string, len(wf.Stages))
	var covered, uncovered []string
	for i, st := range wf.Stages {
		names[i] = st.Profile
		if names[i] == "" {
			names[i] = req.Profile
		}
		if names[i] == "" {
			uncovered = append(uncovered, st.Name)
		} else {
			covered = append(covered, st.Name)
		}
	}
	if len(covered) > 0 && len(uncovered) > 0 {
		return nil, nil, invalid(fmt.Errorf(
			"service: workflow profiles cover only stages %s; stages %s resolve none — seed every stage (stage profile or request default) or none",
			strings.Join(covered, ", "), strings.Join(uncovered, ", ")))
	}

	// Wave concurrency over the resolved per-stage clusters.
	cfgs := make([]core.Config, len(wf.Stages))
	for i, st := range wf.Stages {
		cfgs[i].Spec = req.Spec
		if st.Spec != nil {
			cfgs[i].Spec = *st.Spec
		}
	}
	conc, err := core.WorkflowConcurrency(dag, cfgs)
	if err != nil {
		return nil, nil, invalid(err)
	}

	stageReqs := make([]PredictRequest, len(wf.Stages))
	for i, st := range wf.Stages {
		sr := PredictRequest{
			Spec: cfgs[i].Spec, Job: st.Job, NumJobs: conc[i],
			Estimator: req.Estimator, Faults: req.Faults, Profile: names[i],
		}
		if err := sr.validate(); err != nil {
			return nil, nil, invalid(fmt.Errorf("service: workflow stage %q: %w", st.Name, err))
		}
		if err := s.resolveProfile(ctx, sr.Profile, &sr.resolved); err != nil {
			return nil, nil, fmt.Errorf("service: workflow stage %q: %w", st.Name, err)
		}
		stageReqs[i] = sr
	}
	return dag, stageReqs, nil
}

// workflowEval composes one workflow evaluation: stages run through the
// per-stage predictEval path in deterministic topological order — each
// stage's cache key identical to the equivalent single-job predict, so a
// K-identical-stage chain costs one model run plus K-1 hits — and the
// durations feed the DAG's critical-path schedule. chain, when non-nil,
// warm-chains stage misses through one caller-owned evaluator.
func (s *Service) workflowEval(ctx context.Context, dag *workflow.DAG, stageReqs []PredictRequest, chain *core.Predictor) (*workflowOutcome, error) {
	order, err := dag.TopoOrder()
	if err != nil {
		return nil, invalid(err)
	}
	n := len(stageReqs)
	if n == 1 {
		// A trivial DAG has no neighbor to chain from; the pooled cold path
		// keeps it bit-identical to the equivalent single-job predict.
		chain = nil
	}
	out := &workflowOutcome{
		report: WorkflowReport{Stages: make([]WorkflowStageReport, n)},
		pred:   core.Prediction{Converged: true},
	}
	durations := make([]float64, n)
	for _, i := range order {
		pr, err := s.predictEval(ctx, stageReqs[i], chain)
		if err != nil {
			return nil, fmt.Errorf("service: workflow stage %q: %w", dag.Stages[i], err)
		}
		durations[i] = pr.Prediction.ResponseTime
		out.report.Stages[i] = WorkflowStageReport{
			Name:         dag.Stages[i],
			ResponseTime: pr.Prediction.ResponseTime,
			Concurrency:  stageReqs[i].NumJobs,
			Cached:       pr.Cached,
			Profile:      pr.Profile,
		}
		out.pred.Iterations += pr.Prediction.Iterations
		out.pred.InnerIterations += pr.Prediction.InnerIterations
		out.pred.Converged = out.pred.Converged && pr.Prediction.Converged
		out.pred.WarmStarted = out.pred.WarmStarted || pr.Prediction.WarmStarted
	}

	sched, err := dag.ComputeSchedule(durations)
	if err != nil {
		return nil, invalid(err)
	}
	out.pred.ResponseTime = sched.Makespan
	out.report.ResponseTime = sched.Makespan
	intervals := make([]timeline.Placed, n)
	for i := range out.report.Stages {
		st := &out.report.Stages[i]
		st.Start = sched.Start[i]
		st.Finish = sched.Finish[i]
		st.Slack = sched.Slack[i]
		st.Critical = sched.Critical[i]
		intervals[i] = timeline.Placed{Class: timeline.ClassStage, ID: i, Start: st.Start, End: st.Finish}
	}
	for _, i := range sched.CriticalPath {
		out.report.CriticalPath = append(out.report.CriticalPath, dag.Stages[i])
	}
	if tree, err := ptree.FromIntervals(intervals); err == nil {
		out.report.Tree = tree.String()
	}
	return out, nil
}

// workflowEvalCached serves one composed workflow through the cache and
// singleflight under its workflow-level key (the per-stage evaluations
// inside keep their own keys either way).
func (s *Service) workflowEvalCached(ctx context.Context, dag *workflow.DAG, stageReqs []PredictRequest, chain *core.Predictor) (*workflowOutcome, bool, bool, error) {
	v, cached, stale, err := s.cachedCompute(ctx, workflowPredictKey(dag, stageReqs), func() (any, error) {
		return s.workflowEval(ctx, dag, stageReqs, chain)
	})
	if err != nil {
		return nil, false, false, err
	}
	return v.(*workflowOutcome), cached, stale, nil
}

// predictWorkflow serves a workflow-bearing Predict request.
func (s *Service) predictWorkflow(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	s.workflowReqs.Add(1)
	dag, stageReqs, err := s.resolveWorkflow(ctx, &req)
	if err != nil {
		return PredictResponse{}, err
	}
	chain := s.predictors.Get().(*core.Predictor)
	o, cached, stale, err := s.workflowEvalCached(ctx, dag, stageReqs, chain)
	s.predictors.Put(chain)
	if err != nil {
		return PredictResponse{}, err
	}
	return PredictResponse{Prediction: o.pred, Cached: cached, Stale: stale, Workflow: &o.report}, nil
}

// planWorkflow serves a workflow-bearing Plan request: the cluster-size
// axis (Nodes or ClassCounts) is swept with the composed workflow makespan
// as each candidate's response time. Job-shape axes and simulator backing
// are rejected — stage jobs are fixed by the workflow block, and the
// analytic composition is what makes the sweep cheap. Deadline queries on
// a bisectable axis reuse the planner's monotone search: the workflow
// makespan is a max/sum composition of per-stage responses, each
// non-increasing in cluster size, so the frontier logic carries over
// unchanged (single-reducer stages only, like the classic fast path).
func (s *Service) planWorkflow(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	s.workflowReqs.Add(1)
	if err := req.validateWorkflowPlan(); err != nil {
		return PlanResponse{}, invalid(err)
	}
	defer s.endSpan(obs.FromContext(ctx), obs.StagePlanSearch, time.Now())

	choices := nodeChoices(&req)
	if len(choices) > maxPlanCandidates {
		return PlanResponse{}, invalid(fmt.Errorf("service: plan grid has %d candidates (max %d); split the sweep",
			len(choices), maxPlanCandidates))
	}

	// Resolve the workflow once per candidate spec: stages without a
	// stage-local cluster inherit the candidate's swept spec.
	stageReqsAt := func(ch nodeChoice) (*workflow.DAG, []PredictRequest, error) {
		preq := PredictRequest{
			Spec: candidateSpec(&req, ch), NumJobs: req.NumJobs, Estimator: req.Estimator,
			Faults: req.Faults, Profile: req.Profile, Workflow: req.Workflow,
		}
		return s.resolveWorkflow(ctx, &preq)
	}

	if s.useWorkflowSearch(&req, choices) {
		return s.planWorkflowSearch(ctx, req, choices, stageReqsAt)
	}

	cands := make([]PlanCandidate, len(choices))
	var wg sync.WaitGroup
	for i := range cands {
		cands[i] = PlanCandidate{Nodes: choices[i].nodes, ClassCounts: choices[i].counts}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &cands[i]
			dag, stageReqs, err := stageReqsAt(choices[i])
			if err != nil {
				c.Err = err.Error()
				return
			}
			chain := s.predictors.Get().(*core.Predictor)
			o, cached, stale, err := s.workflowEvalCached(ctx, dag, stageReqs, chain)
			s.predictors.Put(chain)
			if err != nil {
				c.Err = err.Error()
				return
			}
			c.ResponseTime = o.report.ResponseTime
			c.Cached = cached
			c.Stale = stale
		}(i)
	}
	wg.Wait()
	obs.FromContext(ctx).AddCounter(obs.CounterPlanCandidates, int64(len(cands)))

	resp := PlanResponse{Candidates: cands, Strategy: StrategyGrid}
	finalizePlan(&resp, &req)
	return partialOnDeadline(ctx, resp)
}

// useWorkflowSearch gates the workflow deadline fast path: same conditions
// as the classic search, plus every stage must be single-reducer (the
// pinned monotonicity premise) and share the swept cluster (a stage-local
// spec does not shrink with the axis, so its duration is constant anyway —
// but a constant floor under a max() keeps monotonicity, so only the
// reducer shape actually gates).
func (s *Service) useWorkflowSearch(req *PlanRequest, choices []nodeChoice) bool {
	if !(req.DeadlineSec > 0 && !req.Exhaustive && len(choices) >= minSearchAxis) {
		return false
	}
	for _, st := range req.Workflow.Stages {
		if st.Job.NumReduces != 1 {
			return false
		}
	}
	sorted := append([]nodeChoice(nil), choices...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].nodes < sorted[b].nodes })
	return chainOrdered(sorted)
}

// planWorkflowSearch runs the monotone bisection of search.go with the
// composed workflow makespan as the axis metric. One warm chain threads
// every stage evaluation of the walk: bisection probes neighboring node
// counts, and within a probe the stages chain through the same evaluator,
// so a 20-stage chain costs barely more model runs than a single job.
func (s *Service) planWorkflowSearch(ctx context.Context, req PlanRequest, choices []nodeChoice, stageReqsAt func(nodeChoice) (*workflow.DAG, []PredictRequest, error)) (PlanResponse, error) {
	sorted := append([]nodeChoice(nil), choices...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].nodes < sorted[b].nodes })
	totals := make([]int, len(sorted))
	weights := make([]float64, len(sorted))
	for i, ch := range sorted {
		totals[i] = ch.nodes
		weights[i] = candidateSpec(&req, ch).PriceWeight()
	}

	warm := s.predictors.Get().(*core.Predictor)
	defer s.predictors.Put(warm)
	evalWith := func(i int, chain *core.Predictor) (float64, bool, error) {
		dag, stageReqs, err := stageReqsAt(sorted[i])
		if err != nil {
			return 0, false, err
		}
		o, cached, _, err := s.workflowEvalCached(ctx, dag, stageReqs, chain)
		if err != nil {
			return 0, false, err
		}
		return o.report.ResponseTime, cached, nil
	}
	eval := func(i int) (float64, bool, error) { return evalWith(i, warm) }
	parEval := func(i int) (float64, bool, error) { return evalWith(i, nil) }
	out := searchNodeAxis(totals, weights, req.DeadlineSec, eval, parEval)

	resp := PlanResponse{Strategy: StrategySearch}
	for k, c := range out.cands {
		c.ClassCounts = sorted[out.idxs[k]].counts
		resp.Candidates = append(resp.Candidates, c)
	}
	resp.Pruned = out.pruned
	finalizePlan(&resp, &req)
	return partialOnDeadline(ctx, resp)
}

// validateWorkflowPlan checks the plan fields meaningful for a workflow
// sweep and rejects the job-shape and simulator machinery that does not
// compose with a DAG of fixed stage jobs.
func (r *PlanRequest) validateWorkflowPlan() error {
	if r.NumJobs <= 0 {
		r.NumJobs = 1
	}
	if r.UseSimulator {
		return errors.New("service: workflow plans are analytic; the simulator sweep has no DAG support on the plan axis")
	}
	if len(r.BlockSizesMB) > 0 || len(r.Reducers) > 0 || len(r.Policies) > 0 {
		return errors.New("service: workflow plans sweep only the cluster axes (nodes or classCounts); stage jobs fix their own block sizes and reducers")
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	for _, n := range r.Nodes {
		if n <= 0 {
			return fmt.Errorf("service: plan node count %d must be positive", n)
		}
	}
	if len(r.Nodes) > 0 && r.Spec.Heterogeneous() {
		return errors.New("service: Nodes axis requires a flat cluster spec; sweep class-form specs with ClassCounts")
	}
	if len(r.ClassCounts) > 0 {
		if len(r.Nodes) > 0 {
			return errors.New("service: ClassCounts and Nodes axes are mutually exclusive")
		}
		if !r.Spec.Heterogeneous() {
			return errors.New("service: ClassCounts requires a class-form cluster spec")
		}
		for mi, mix := range r.ClassCounts {
			if len(mix) != len(r.Spec.Classes) {
				return fmt.Errorf("service: class mix %d has %d counts, want %d (one per spec class)",
					mi, len(mix), len(r.Spec.Classes))
			}
			total := 0
			for ci, n := range mix {
				if n < 0 {
					return fmt.Errorf("service: class mix %d: count for class %q must be nonnegative",
						mi, r.Spec.Classes[ci].Name)
				}
				total += n
			}
			if total <= 0 {
				return fmt.Errorf("service: class mix %d has no nodes", mi)
			}
		}
	}
	if r.DeadlineSec < 0 {
		return fmt.Errorf("service: deadline %v must be nonnegative", r.DeadlineSec)
	}
	if r.Quantile != 0 {
		return errors.New("service: quantile planning needs useSimulator (the analytic model predicts means)")
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if _, err := r.Estimator.MarshalText(); err != nil {
		return err
	}
	return nil
}
