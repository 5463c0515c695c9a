package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
)

// This file serves DAG workflows: a request-level workflow block names job
// stages and precedence edges, each stage rides the same per-stage result
// table and predictor path as a plain predict (so a workflow stage and
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

// resolvedWorkflow is a workflow block checked once per request: its DAG
// and one stage request template per stage, with the stage's own cluster
// (if any) and its calibrated profile pinned to one snapshot. A plan
// resolves once and derives every candidate's stages from it (stagesAt).
type resolvedWorkflow struct {
	wf  *Workflow
	dag *workflow.DAG
	// stages holds each stage's request less the cluster it inherits (Spec
	// is set only for stage-local clusters) and its wave population.
	stages []PredictRequest
}

// resolveWorkflow checks req's workflow block and resolves its profile
// references: the stage-count limit, the NumJobs rule, the DAG's structure
// and the all-or-none profile coverage. Every defect is an invalid request
// (HTTP 400). Each distinct profile name resolves once, so every stage —
// and every candidate of a plan — shares one snapshot.
func (s *Service) resolveWorkflow(ctx context.Context, req *PredictRequest) (*resolvedWorkflow, error) {
	wf := req.Workflow
	if len(wf.Stages) > MaxNumJobs {
		return nil, invalid(fmt.Errorf("service: workflow has %d stages, limit %d", len(wf.Stages), MaxNumJobs))
	}
	if req.NumJobs > 1 {
		return nil, invalid(errors.New("service: NumJobs is derived from the workflow's waves; set per-stage shape with edges instead"))
	}
	rw := &resolvedWorkflow{wf: wf, dag: wf.dag(), stages: make([]PredictRequest, len(wf.Stages))}
	if err := rw.dag.Validate(); err != nil {
		return nil, invalid(err)
	}

	// Per-stage profile resolution rule: stage Profile wins over the
	// request's; mixed coverage (some stages seeded, some not) is rejected
	// up front with the uncovered stages named.
	var covered, uncovered []string
	for i, st := range wf.Stages {
		sr := &rw.stages[i]
		*sr = PredictRequest{Job: st.Job, Estimator: req.Estimator, Faults: req.Faults, Profile: st.Profile}
		if sr.Profile == "" {
			sr.Profile = req.Profile
		}
		if sr.Profile == "" {
			uncovered = append(uncovered, st.Name)
		} else {
			covered = append(covered, st.Name)
		}
		if st.Spec != nil {
			sr.Spec = *st.Spec
		}
	}
	if len(covered) > 0 && len(uncovered) > 0 {
		return nil, invalid(fmt.Errorf(
			"service: workflow profiles cover only stages %s; stages %s resolve none — seed every stage (stage profile or request default) or none",
			strings.Join(covered, ", "), strings.Join(uncovered, ", ")))
	}
	snapshots := map[string]*calibratedProfile{}
	for i := range rw.stages {
		sr := &rw.stages[i]
		if sr.Profile == "" {
			continue
		}
		if p, ok := snapshots[sr.Profile]; ok {
			sr.resolved = p
			continue
		}
		if err := s.resolveProfile(ctx, sr.Profile, &sr.resolved); err != nil {
			return nil, fmt.Errorf("service: workflow stage %q: %w", wf.Stages[i].Name, err)
		}
		snapshots[sr.Profile] = sr.resolved
	}
	return rw, nil
}

// stagesAt derives the per-stage PredictRequests of the workflow on the
// cluster spec: inheriting stages take spec, and every stage is priced at
// its wave population. The requests — and so the stage and workflow cache
// keys — are those of a workflow predict on spec.
func (rw *resolvedWorkflow) stagesAt(spec cluster.Spec) ([]PredictRequest, error) {
	stageReqs := make([]PredictRequest, len(rw.stages))
	cfgs := make([]core.Config, len(rw.stages))
	for i := range stageReqs {
		stageReqs[i] = rw.stages[i]
		if rw.wf.Stages[i].Spec == nil {
			stageReqs[i].Spec = spec
		}
		cfgs[i].Spec = stageReqs[i].Spec
	}
	conc, err := core.WorkflowConcurrency(rw.dag, cfgs)
	if err != nil {
		return nil, invalid(err)
	}
	for i := range stageReqs {
		stageReqs[i].NumJobs = conc[i]
		if err := stageReqs[i].validate(); err != nil {
			return nil, invalid(fmt.Errorf("service: workflow stage %q: %w", rw.dag.Stages[i], err))
		}
	}
	return stageReqs, nil
}

// workflowEval composes one workflow evaluation through
// core.ComposeWorkflow, with each stage served by the per-stage predictEval
// path — each stage's cache key identical to the equivalent single-job
// predict, so a K-identical-stage chain costs one model run plus K-1 hits.
// A stage miss solves chained when the composition asks for it (a
// multi-stage workflow) and cold otherwise.
func (s *Service) workflowEval(ctx context.Context, dag *workflow.DAG, stageReqs []PredictRequest) (*workflowOutcome, error) {
	cfgs := make([]core.Config, len(stageReqs))
	for i := range stageReqs {
		cfgs[i] = stageReqs[i].config()
	}
	stages := make([]WorkflowStageReport, len(stageReqs))
	wp, err := core.ComposeWorkflow(dag, cfgs, func(i int, _ core.Config, warm bool) (core.Prediction, error) {
		// stagesAt priced each stage at its wave population already, so the
		// composition's config is stageReqs[i]'s own.
		pr, err := s.predictEval(ctx, stageReqs[i], warm)
		if err != nil {
			return core.Prediction{}, err
		}
		stages[i].Cached = pr.Cached
		stages[i].Profile = pr.Profile
		return pr.Prediction, nil
	})
	if err != nil {
		return nil, err
	}

	out := &workflowOutcome{
		report: WorkflowReport{ResponseTime: wp.ResponseTime, Stages: stages, CriticalPath: wp.CriticalPath},
		pred: core.Prediction{
			ResponseTime: wp.ResponseTime, Iterations: wp.Iterations,
			InnerIterations: wp.InnerIterations, Converged: wp.Converged,
		},
	}
	for i, st := range wp.Stages {
		r := &stages[i]
		r.Name, r.ResponseTime, r.Concurrency = st.Name, st.ResponseTime, st.Concurrency
		r.Start, r.Finish, r.Slack, r.Critical = st.Start, st.Finish, st.Slack, st.Critical
	}
	if wp.Tree != nil {
		out.report.Tree = wp.Tree.String()
	}
	return out, nil
}

// workflowEvalCached serves one composed workflow through the result table
// under its workflow-level key (the per-stage evaluations
// inside keep their own keys either way).
func (s *Service) workflowEvalCached(ctx context.Context, dag *workflow.DAG, stageReqs []PredictRequest) (*workflowOutcome, bool, bool, error) {
	v, cached, stale, err := s.cachedCompute(ctx, workflowPredictKey(dag, stageReqs), func() (any, bool, error) {
		o, err := s.workflowEval(ctx, dag, stageReqs)
		return o, true, err
	})
	if err != nil {
		return nil, false, false, err
	}
	return v.(*workflowOutcome), cached, stale, nil
}

// predictWorkflow serves a workflow-bearing Predict request.
func (s *Service) predictWorkflow(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	s.workflowReqs.Add(1)
	rw, err := s.resolveWorkflow(ctx, &req)
	if err != nil {
		return PredictResponse{}, err
	}
	stageReqs, err := rw.stagesAt(req.Spec)
	if err != nil {
		return PredictResponse{}, err
	}
	o, cached, stale, err := s.workflowEvalCached(ctx, rw.dag, stageReqs)
	if err != nil {
		return PredictResponse{}, err
	}
	return PredictResponse{Prediction: o.pred, Cached: cached, Stale: stale, Workflow: &o.report}, nil
}

// evalWorkflowCandidate is a workflow plan's unit evaluation: the
// candidate's response is the workflow predict at its cluster, served from
// the same cache entry.
func (s *Service) evalWorkflowCandidate(ctx context.Context, req *PlanRequest, rw *resolvedWorkflow, c PlanCandidate) (PlanCandidate, error) {
	stageReqs, err := rw.stagesAt(candidateSpec(req, nodeChoice{nodes: c.Nodes, counts: c.ClassCounts}))
	if err != nil {
		return c, err
	}
	o, cached, stale, err := s.workflowEvalCached(ctx, rw.dag, stageReqs)
	if err != nil {
		return c, err
	}
	c.ResponseTime, c.Cached, c.Stale = o.report.ResponseTime, cached, stale
	return c, nil
}
