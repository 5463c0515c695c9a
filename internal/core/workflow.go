package core

import (
	"context"
	"fmt"

	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workflow"
)

// This file evaluates DAG workflows of dependent jobs analytically:
// ComposeWorkflow solves stages in topological order through a per-stage
// solver (a Predictor's Predict; the service passes its cached predict),
// stages sharing a wave and a cluster are priced as a closed multi-job
// population (the paper's N-concurrent-jobs methodology applied per wave),
// and the stage durations compose into a critical-path response via
// internal/workflow's CPM schedule. The per-stage precedence trees stay
// intra-job; the cross-job structure surfaces as a stage-level S/P tree
// (timeline.ClassStage leaves) built by ptree.FromIntervals.

// WorkflowStageResult is one stage's evaluation inside a workflow
// prediction.
type WorkflowStageResult struct {
	// Name is the stage's DAG name.
	Name string
	// ResponseTime is the stage's predicted duration: its single-job
	// response, or its per-job response inside the wave's closed multi-job
	// population when the stage shares its wave and cluster with others.
	ResponseTime float64
	// Start, Finish and Slack are the stage's critical-path schedule times
	// (earliest start, earliest finish, total float).
	Start  float64
	Finish float64 // see Start
	Slack  float64 // see Start
	// Critical reports zero slack: the stage sits on a longest path.
	Critical bool
	// Concurrency is the closed-network population the stage was evaluated
	// at (1 + co-scheduled same-cluster stages of its wave).
	Concurrency int
	// Iterations, InnerIterations and Converged mirror the stage's
	// Prediction bookkeeping.
	Iterations      int
	InnerIterations int  // see Iterations
	Converged       bool // see Iterations
}

// WorkflowPrediction is the analytic evaluation of a workflow DAG.
type WorkflowPrediction struct {
	// ResponseTime is the workflow's critical-path makespan.
	ResponseTime float64
	// Stages reports every stage in DAG declaration order.
	Stages []WorkflowStageResult
	// CriticalPath is one longest source-to-sink chain, by stage name.
	CriticalPath []string
	// Iterations and InnerIterations total the outer and inner fixed-point
	// rounds across all stage evaluations; Converged requires every stage
	// to have converged.
	Iterations      int
	InnerIterations int  // see Iterations
	Converged       bool // see Iterations
	// Tree is the cross-job precedence tree: each leaf is a whole stage
	// (timeline.ClassStage, ID = stage index) placed at its scheduled
	// interval, composed with the paper's S/P operators.
	Tree *ptree.Node
}

// WorkflowConcurrency returns each stage's effective closed-network
// population: stages sharing a wave contend only when they run on the same
// cluster (equal specs), so a stage with stage-local sizing keeps
// population 1 unless a wave sibling uses identical hardware.
func WorkflowConcurrency(dag *workflow.DAG, cfgs []Config) ([]int, error) {
	waves, err := dag.Waves()
	if err != nil {
		return nil, err
	}
	return workflow.Concurrency(waves, func(i, j int) bool { return cfgs[i].Spec.Equal(cfgs[j].Spec) }), nil
}

// PredictWorkflow evaluates a workflow DAG on a pooled Predictor (see
// Predictor.PredictWorkflowContext).
func PredictWorkflow(dag *workflow.DAG, cfgs []Config) (WorkflowPrediction, error) {
	p := predictors.Get().(*Predictor)
	wp, err := p.PredictWorkflowContext(context.Background(), dag, cfgs)
	predictors.Put(p)
	return wp, err
}

// PredictWorkflowContext evaluates every stage of the DAG on this
// Predictor, honoring ctx between stage evaluations and outer iterations,
// in deterministic topological order, and composes the critical-path
// response (see ComposeWorkflow). Each stage is a PredictContext solve
// without its artifacts (ComposeWorkflow reads only scalars), so a
// single-stage workflow predicts exactly what Predict does.
func (p *Predictor) PredictWorkflowContext(ctx context.Context, dag *workflow.DAG, cfgs []Config) (WorkflowPrediction, error) {
	return ComposeWorkflow(dag, cfgs, func(_ int, cfg Config) (Prediction, error) {
		return p.predictOne(ctx, cfg, false)
	})
}

// ComposeWorkflow is the workflow composition: it validates the DAG, solves
// every stage in deterministic topological order through solve, and
// composes the stage durations into the critical-path schedule, the
// critical path and the stage-level S/P tree. cfgs holds one model Config
// per stage, in DAG declaration order; each stage's NumJobs is raised to
// its wave population when lower (stages co-scheduled on the same cluster
// contend as a closed multi-job network) before solve sees it.
func ComposeWorkflow(dag *workflow.DAG, cfgs []Config, solve func(i int, cfg Config) (Prediction, error)) (WorkflowPrediction, error) {
	if err := dag.Validate(); err != nil {
		return WorkflowPrediction{}, err
	}
	if len(cfgs) != dag.NumStages() {
		return WorkflowPrediction{}, fmt.Errorf("core: %d stage configs for %d stages", len(cfgs), dag.NumStages())
	}
	order, err := dag.TopoOrder()
	if err != nil {
		return WorkflowPrediction{}, err
	}
	conc, err := WorkflowConcurrency(dag, cfgs)
	if err != nil {
		return WorkflowPrediction{}, err
	}

	out := WorkflowPrediction{
		Stages:    make([]WorkflowStageResult, dag.NumStages()),
		Converged: true,
	}
	durations := make([]float64, dag.NumStages())
	for _, i := range order {
		cfg := cfgs[i]
		if cfg.NumJobs < conc[i] {
			cfg.NumJobs = conc[i]
		}
		pred, err := solve(i, cfg)
		if err != nil {
			return WorkflowPrediction{}, fmt.Errorf("core: stage %q: %w", dag.Stages[i], err)
		}
		durations[i] = pred.ResponseTime
		out.Stages[i] = WorkflowStageResult{
			Name:            dag.Stages[i],
			ResponseTime:    pred.ResponseTime,
			Concurrency:     cfg.NumJobs,
			Iterations:      pred.Iterations,
			InnerIterations: pred.InnerIterations,
			Converged:       pred.Converged,
		}
		out.Iterations += pred.Iterations
		out.InnerIterations += pred.InnerIterations
		out.Converged = out.Converged && pred.Converged
	}

	sched, err := dag.ComputeSchedule(durations)
	if err != nil {
		return WorkflowPrediction{}, err
	}
	out.ResponseTime = sched.Makespan
	intervals := make([]timeline.Placed, dag.NumStages())
	for i := range out.Stages {
		st := &out.Stages[i]
		st.Start = sched.Start[i]
		st.Finish = sched.Finish[i]
		st.Slack = sched.Slack[i]
		st.Critical = sched.Critical[i]
		intervals[i] = timeline.Placed{
			Class: timeline.ClassStage, ID: i, Start: st.Start, End: st.Finish,
		}
	}
	for _, i := range sched.CriticalPath {
		out.CriticalPath = append(out.CriticalPath, dag.Stages[i])
	}
	if tree, err := ptree.FromIntervals(intervals); err == nil {
		out.Tree = tree
	}
	return out, nil
}
