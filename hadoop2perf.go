// Package hadoop2perf predicts the response time of MapReduce jobs on
// Hadoop 2.x / YARN clusters, reproducing the performance model of
// Glushkova, Jovanovic and Abelló, "MapReduce Performance Models for
// Hadoop 2.x" (EDBT/ICDT Workshops 2017).
//
// The package bundles two layers:
//
//   - an analytic model (Predict) combining Algorithm-1 timeline
//     construction, precedence trees and overlap-weighted Mean Value
//     Analysis, with the paper's two job-level estimators (fork/join-based
//     and Tripathi-based);
//   - a discrete-event YARN cluster simulator (Simulate) standing in for a
//     real Hadoop 2.x testbed, used to validate the model.
//
// Quick start:
//
//	spec := hadoop2perf.DefaultCluster(4)
//	job, _ := hadoop2perf.NewJob(0, 1024, 128, 4, hadoop2perf.WordCount())
//	pred, _ := hadoop2perf.Predict(hadoop2perf.ModelConfig{Spec: spec, Job: job, NumJobs: 1})
//	fmt.Printf("estimated response: %.1fs\n", pred.ResponseTime)
package hadoop2perf

import (
	"context"
	"io"
	"net/http"
	"time"

	"hadoop2perf/internal/bench"
	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/service"
	"hadoop2perf/internal/trace"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// Re-exported types: the library's public surface. See the internal packages
// for full documentation of each.
type (
	// Cluster describes a YARN cluster: a flat homogeneous spec, or a
	// heterogeneous one via Classes.
	Cluster = cluster.Spec
	// NodeClass is one hardware class of a heterogeneous cluster (a group of
	// identical nodes; see Cluster.Classes).
	NodeClass = cluster.NodeClass
	// Resource is a YARN resource vector.
	Resource = cluster.Resource
	// Job describes one MapReduce job.
	Job = workload.Job
	// Profile holds per-phase workload costs (the "job profile").
	Profile = workload.Profile
	// ModelConfig drives an analytic prediction.
	ModelConfig = core.Config
	// Prediction is the analytic model output.
	Prediction = core.Prediction
	// Estimator selects the tree estimator.
	Estimator = core.Estimator
	// SimConfig drives a cluster simulation.
	SimConfig = mrsim.Config
	// SimResult is a simulated execution.
	SimResult = mrsim.Result
	// FaultPlan is a seeded fault-injection scenario: the simulator injects
	// it, the analytic model corrects for it. Assign to SimConfig.Faults /
	// ModelConfig.Faults; nil means no injected faults.
	FaultPlan = fault.Plan
	// FaultStats counts the fault activity of one simulated run
	// (SimResult.Faults; nil when the scenario was inactive).
	FaultStats = mrsim.FaultStats
	// SchedulerPolicy orders applications in the RM's root queue.
	SchedulerPolicy = yarn.Policy
	// ResourceEstimate holds predicted per-job resource consumption.
	ResourceEstimate = core.ResourceEstimate
	// Service is the concurrent prediction engine behind cmd/mrserved: a
	// bounded worker pool, one sharded result table, and a parallel
	// what-if planner.
	Service = service.Service
	// ServiceOptions configures a Service.
	ServiceOptions = service.Options
	// ServerConfig tunes the HTTP layer of NewServiceHandlerConfig: the
	// timeout and access logging.
	ServerConfig = service.ServerConfig
	// ServiceMetrics is a snapshot of service counters.
	ServiceMetrics = service.Metrics
	// PredictRequest / SimulateRequest / CompareRequest / PlanRequest are
	// the service API inputs; PlanResponse ranks a what-if grid.
	PredictRequest  = service.PredictRequest
	SimulateRequest = service.SimulateRequest
	CompareRequest  = service.CompareRequest
	PlanRequest     = service.PlanRequest
	PlanResponse    = service.PlanResponse
	PlanCandidate   = service.PlanCandidate
	// CalibrateRequest / CalibrateResponse fit a named profile from a
	// job-history trace into the service's versioned registry; ProfileInfo
	// is the registry's public view of one stored profile.
	CalibrateRequest  = service.CalibrateRequest
	CalibrateResponse = service.CalibrateResponse
	ProfileInfo       = service.ProfileInfo
	// ClassStats carries one task class's model-initialization statistics
	// (ModelConfig.History values).
	ClassStats = core.ClassStats
	// FitOptions / FitResult / FittedClass drive trace-profile fitting (the
	// §4.2.1 history initialization); see FitTrace.
	FitOptions  = trace.FitOptions
	FitResult   = trace.FitResult
	FittedClass = trace.FittedClass
	// WorkflowDAG is a multi-job workflow shape: named stages plus cross-job
	// precedence edges (WorkflowEdge). Assign to SimConfig.Workflow to make
	// the simulator release each job only when its parents finish, or
	// evaluate analytically with PredictWorkflow.
	WorkflowDAG  = workflow.DAG
	WorkflowEdge = workflow.Edge
	// WorkflowPrediction is the analytic workflow result: the critical-path
	// makespan plus per-stage start/finish/slack (WorkflowStageResult).
	WorkflowPrediction  = core.WorkflowPrediction
	WorkflowStageResult = core.WorkflowStageResult
	// ServiceWorkflow is the workflow block of service Predict/Plan requests
	// (one ServiceWorkflowStage per job); WorkflowReport is the composed
	// response slice.
	ServiceWorkflow      = service.Workflow
	ServiceWorkflowStage = service.WorkflowStage
	WorkflowReport       = service.WorkflowReport
)

// Estimators (paper §4.2.4).
const (
	EstimatorForkJoin     = core.EstimatorForkJoin
	EstimatorTripathi     = core.EstimatorTripathi
	EstimatorPaperLiteral = core.EstimatorPaperLiteral
)

// Scheduler policies.
const (
	PolicyFIFO = yarn.PolicyFIFO
	PolicyFair = yarn.PolicyFair
)

// DefaultCluster returns the calibrated evaluation cluster with the given
// node count (paper §5.1).
func DefaultCluster(numNodes int) Cluster { return cluster.Default(numNodes) }

// WordCount returns the paper's evaluation workload profile.
func WordCount() Profile { return workload.WordCount() }

// Grep returns a map-heavy, low-shuffle profile.
func Grep() Profile { return workload.Grep() }

// TeraSort returns a shuffle-heavy profile.
func TeraSort() Profile { return workload.TeraSort() }

// NewJob builds a validated job: inputMB of data split into blockSizeMB
// splits, with the given reducer count and workload profile.
func NewJob(id int, inputMB, blockSizeMB float64, reduces int, p Profile) (Job, error) {
	return workload.NewJob(id, inputMB, blockSizeMB, reduces, p)
}

// Predict runs the analytic performance model (modified MVA, §4.2). Each
// outer round's inner MVA fixed point starts from the previous round's,
// with Aitken acceleration; the answer depends only on cfg. It also
// returns the final round's timeline and precedence tree, which the
// Service's answers leave out.
func Predict(cfg ModelConfig) (Prediction, error) { return core.Predict(cfg) }

// Predictor is a reusable, allocation-lean model evaluator (one goroutine
// at a time); see NewPredictor. Its Predict gives the bits of the
// package-level Predict, never depending on what the Predictor solved
// before.
type Predictor = core.Predictor

// NewPredictor returns a reusable model evaluator whose scratch buffers
// survive across predictions — the fast path for evaluating many
// configurations in a loop.
func NewPredictor() *Predictor { return core.NewPredictor() }

// EstimateResources predicts per-class and total resource consumption and
// cluster utilization for the configured job (the paper's §6 future work).
func EstimateResources(cfg ModelConfig) (ResourceEstimate, Prediction, error) {
	return core.EstimateResources(cfg)
}

// WorkflowChain builds the DAG of a linear stage chain (each stage waits
// for the previous one).
func WorkflowChain(stages ...string) *WorkflowDAG { return workflow.Chain(stages...) }

// PredictWorkflow evaluates a multi-job workflow analytically: stage i of
// the DAG runs ModelConfig cfgs[i], stages are solved in topological order
// (concurrent same-cluster stages priced at their wave's population), each
// by Predict, and the per-stage times compose into the workflow's
// critical-path makespan.
func PredictWorkflow(dag *WorkflowDAG, cfgs []ModelConfig) (WorkflowPrediction, error) {
	return core.PredictWorkflow(dag, cfgs)
}

// Simulate executes jobs on the discrete-event YARN cluster simulator.
func Simulate(cfg SimConfig) (SimResult, error) { return mrsim.Run(cfg) }

// SimulateMedian runs reps seeded simulations and returns the median run
// (the paper's measurement methodology, §5.1).
func SimulateMedian(cfg SimConfig, reps int) (SimResult, error) {
	return mrsim.RunMedianOfSeeds(cfg, reps)
}

// SimulateQuantile runs reps seeded simulations and returns the run at the
// given mean-response quantile (0.5, 0.95, 0.99, ...). Under a fault
// scenario the upper quantiles expose the bad draws — the runs where node
// losses or straggler tails actually hurt.
func SimulateQuantile(cfg SimConfig, reps int, q float64) (SimResult, error) {
	return mrsim.RunQuantileOfSeeds(context.Background(), cfg, reps, q)
}

// WriteTrace serializes a simulated execution as a job-history trace
// document (JSON), the format ReadTrace and the service's /v1/calibrate
// endpoint ingest.
func WriteTrace(w io.Writer, res SimResult) error { return trace.Write(w, res) }

// ReadTrace parses and validates a job-history trace document.
func ReadTrace(r io.Reader) (SimResult, error) { return trace.Read(r) }

// FitTrace distills a trace into per-class model-initialization statistics
// (§4.2.1, first approach): assign the returned FitResult.History to
// ModelConfig.History to seed predictions from measured executions instead
// of the Herodotou static model.
func FitTrace(res SimResult, opts FitOptions) (FitResult, error) { return trace.Fit(res, opts) }

// NewService builds the concurrent prediction engine: cached Predict /
// Simulate / Compare plus the parallel what-if Plan. The zero ServiceOptions
// picks sensible defaults (GOMAXPROCS workers, 1024 cache entries, 5
// simulator repetitions).
//
// The Service's model answers are answer-only: the Prediction in a
// PredictResponse (and every model answer behind compare, plan and
// workflow) leaves Timeline and Tree nil, so a cached predict holds about
// 0.5 KB. Earlier releases copied the final round's timeline and
// precedence tree into it; call Predict for those artifacts.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// NewServiceHandler exposes a Service as the mrserved HTTP API (/healthz,
// /readyz, /v1/metrics, /v1/profiles, /v1/predict, /v1/simulate,
// /v1/compare, /v1/plan, /v1/calibrate).
// A zero timeout selects the per-kind defaults (10s for predict, 30s for
// simulate/compare/plan/calibrate); clients may shrink a request's budget
// with an X-Deadline-Ms header. Admission decides from the route and that
// header before any body byte is read, and the budget bounds the body
// read too.
func NewServiceHandler(s *Service, timeout time.Duration) http.Handler {
	return service.NewHandler(s, service.ServerConfig{Timeout: timeout})
}

// NewServiceHandlerConfig is NewServiceHandler with full HTTP-layer tuning:
// the timeout, the access log and its slow-request threshold. Body caps
// are fixed per route (1 MiB; 16 MiB for /v1/calibrate). Overload is shed
// by the Service's admission controller (503 + Retry-After), not here.
func NewServiceHandlerConfig(s *Service, cfg ServerConfig) http.Handler {
	return service.NewHandler(s, cfg)
}

// Comparison is the outcome of validating the model against the simulator
// for one configuration.
type Comparison struct {
	// Simulated is the median measured mean job response time.
	Simulated float64
	// ForkJoin and Tripathi are the two model estimates.
	ForkJoin float64
	Tripathi float64
	// ForkJoinErr and TripathiErr are signed relative errors vs. Simulated
	// (positive = overestimate).
	ForkJoinErr float64
	TripathiErr float64
}

// Compare validates both model variants against a simulated execution of
// numJobs concurrent copies of job (fair scheduling for numJobs > 1), using
// reps simulator repetitions. The simulation and the model solve run side
// by side (see internal/bench.Compare).
func Compare(spec Cluster, job Job, numJobs int, seed int64, reps int) (Comparison, error) {
	pt, err := bench.Compare(spec, job, numJobs, seed, reps)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Simulated:   pt.Sim,
		ForkJoin:    pt.ForkJoin,
		Tripathi:    pt.Tripathi,
		ForkJoinErr: pt.FJErr(),
		TripathiErr: pt.TPErr(),
	}, nil
}
