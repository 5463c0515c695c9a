// Package service is the long-lived prediction engine behind cmd/mrserved:
// it wraps the analytic model (internal/core), the discrete-event simulator
// (internal/mrsim) and the static baselines behind one concurrent
// request/response API suitable for serving many what-if scenarios.
//
// Three mechanisms make repeated operational queries cheap:
//
//   - a bounded worker pool caps concurrent model/simulator executions, so a
//     burst of requests degrades into queueing instead of thrashing;
//   - a sharded result table keyed on a canonical hash of the full request
//     (cluster spec, job, scheduler policy, estimator, job count) makes
//     repeated predictions O(1), and lets concurrent identical requests
//     join the one computation in flight, so a thundering herd computes
//     once and shares the result.
//
// The what-if planner (planner.go) sweeps cluster size, block size,
// reducer count and scheduler policy through the same pool and cache to
// answer capacity-planning and deadline queries in one call. Deadline
// queries ride a monotone search engine (search.go) — bisection on the
// node axis plus dominance pruning — that returns the grid's answer in
// O(log N) model evaluations instead of O(N).
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hadoop2perf/internal/admit"
	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/stats"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// Defaults for Options fields left zero.
const (
	DefaultCacheSize = 1024
	DefaultSimReps   = 5
)

// Request ceilings. The engine fronts untrusted HTTP input, so every
// quantity that scales work or memory is bounded: a single request may not
// allocate unbounded job slices or pin a worker for hours.
const (
	// MaxNumJobs bounds the concurrent-job population of one request (the
	// MVA step is O(N²) in it; the paper evaluates N ≤ 4).
	MaxNumJobs = 64
	// MaxSimJobs bounds the job list of one simulation.
	MaxSimJobs = 64
	// MaxSimReps bounds the median-of-seeds repetition count.
	MaxSimReps = 25
	// MaxNodes bounds the worker-node count of every cluster a request
	// names, each plan-axis point included: the model and the simulator
	// keep per-node state.
	MaxNodes = 10000
	// MaxModelCells bounds (2K+1)·T² for every job that can reach the
	// model, where K is the node-class count and T = maps + 2·reduces the
	// task count: one solve allocates that many 8-byte overlap weights.
	// Simulated jobs count too, since the breaker's degraded fallback
	// answers them with the model.
	MaxModelCells = 1 << 24
)

// checkCeilings holds one model job on spec to MaxNodes and MaxModelCells.
func checkCeilings(spec cluster.Spec, job workload.Job) error {
	if err := checkNodes(spec); err != nil {
		return err
	}
	return checkModelCells(spec, job)
}

// checkNodes rejects a cluster of more than MaxNodes nodes.
func checkNodes(spec cluster.Spec) error {
	n := spec.NumNodes
	if len(spec.Classes) > 0 {
		n = 0
		for _, c := range spec.Classes {
			n += min(c.Count, MaxNodes+1) // saturates: no overflow
		}
	}
	if n > MaxNodes {
		return fmt.Errorf("service: cluster of %d nodes exceeds limit %d", n, MaxNodes)
	}
	return nil
}

// checkModelCells rejects a job whose solve on spec's node classes would
// exceed MaxModelCells. Invalid job fields are left to the job's own
// validation.
func checkModelCells(spec cluster.Spec, job workload.Job) error {
	if job.InputMB <= 0 || job.BlockSizeMB <= 0 || job.NumReduces <= 0 {
		return nil
	}
	classes := max(len(spec.Classes), 1)
	tasks := math.Ceil(job.InputMB/job.BlockSizeMB) + 2*float64(job.NumReduces)
	if cells := float64(2*classes+1) * tasks * tasks; cells > MaxModelCells {
		return fmt.Errorf("service: a job of %.0f tasks on %d node classes needs %.3g model cells, limit %d; use a larger block size or fewer reducers",
			tasks, classes, cells, MaxModelCells)
	}
	return nil
}

// Options configures a Service.
type Options struct {
	// Workers bounds concurrently executing model/simulator jobs: the
	// admission controller's slot count (default: GOMAXPROCS).
	Workers int
	// CacheSize is the LRU entry capacity (default 1024).
	CacheSize int
	// SimReps is the default median-of-seeds repetition count for simulation
	// requests that leave Reps zero (default 5, the paper's methodology).
	SimReps int
	// ProfileTTL is the default lifetime of calibrated profiles (default
	// DefaultProfileTTL); per-request TTLs override it.
	ProfileTTL time.Duration
	// MaxProfiles bounds the calibrated-profile registry population
	// (default DefaultMaxProfiles).
	MaxProfiles int
	// CacheTTL ages response-cache entries: an entry older than CacheTTL
	// reads as a miss (and is recomputed), but stays resident so the
	// serve-stale degradation path can fall back to it when the worker pool
	// is saturated. Zero (the default) never expires entries — the
	// historical behavior.
	CacheTTL time.Duration
	// AdmitMaxQueueCost bounds the admission controller's outstanding
	// admitted cost (default Workers × admit.DefaultQueueFactor). Requests
	// beyond the bound are shed with a structured 503.
	AdmitMaxQueueCost int
	// BreakerThreshold is the consecutive-timeout count that trips the
	// simulator circuit breaker (default admit.DefaultTripThreshold);
	// BreakerCooldown how long it stays open before a half-open probe
	// (default admit.DefaultCooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration // see BreakerThreshold
}

func (o *Options) applyDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize <= 0 {
		o.CacheSize = DefaultCacheSize
	}
	if o.SimReps <= 0 {
		o.SimReps = DefaultSimReps
	}
	if o.ProfileTTL <= 0 {
		o.ProfileTTL = DefaultProfileTTL
	}
	if o.MaxProfiles <= 0 {
		o.MaxProfiles = DefaultMaxProfiles
	}
}

// invalidRequestError marks errors raised by request validation, before any
// computation, so transports can map them to client-fault status codes.
type invalidRequestError struct{ err error }

func (e invalidRequestError) Error() string { return e.err.Error() }
func (e invalidRequestError) Unwrap() error { return e.err }

// invalid wraps a validation error (nil stays nil).
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return invalidRequestError{err}
}

// IsInvalidRequest reports whether err comes from request validation (a
// client mistake) as opposed to an engine failure.
func IsInvalidRequest(err error) bool {
	var e invalidRequestError
	return errors.As(err, &e)
}

// Metrics is a point-in-time snapshot of service counters.
type Metrics struct {
	// PredictRequests through CalibrateRequests count accepted API calls
	// per kind.
	PredictRequests   int64 `json:"predictRequests"`
	SimulateRequests  int64 `json:"simulateRequests"`  // see PredictRequests
	CompareRequests   int64 `json:"compareRequests"`   // see PredictRequests
	PlanRequests      int64 `json:"planRequests"`      // see PredictRequests
	CalibrateRequests int64 `json:"calibrateRequests"` // see PredictRequests
	// CacheHits counts requests served without computing (a stored result
	// or a shared in-flight one); CacheMisses counts actual computations.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"` // see CacheHits
	// HitRate is CacheHits / (CacheHits + CacheMisses), 0 when idle.
	HitRate float64 `json:"hitRate"`
	// InFlightSims is the number of simulator executions running right now.
	InFlightSims int64 `json:"inFlightSims"`
	// SimRuns counts completed simulator executions (each is Reps seeded runs).
	SimRuns int64 `json:"simRuns"`
	// CacheEntries is the current population of completed cache entries.
	CacheEntries int `json:"cacheEntries"`
	// ProfilesActive is the current count of live (unexpired) calibrated
	// profiles in the registry.
	ProfilesActive int `json:"profilesActive"`
	// ModelOuterIterations accumulates the outer damped rounds of every
	// computed (non-cached) model prediction; ModelInnerIterations the inner
	// MVA fixed-point sweeps. Together with CacheMisses they make the
	// convergence cost of production traffic observable — the chained
	// solve's win shows up here as fewer inner sweeps per miss.
	ModelOuterIterations int64 `json:"modelOuterIterations"`
	ModelInnerIterations int64 `json:"modelInnerIterations"` // see ModelOuterIterations
	// ModelReusedRounds counts the outer rounds among ModelOuterIterations
	// that rebuilt none of their structure (core.Prediction.ReusedRounds).
	ModelReusedRounds int64 `json:"modelReusedRounds"`
	// WorkflowRequests counts predict/plan requests that carried a workflow
	// block (also included in PredictRequests/PlanRequests).
	WorkflowRequests int64 `json:"workflowRequests"`
	// SimFaultsInjected accumulates node failures (including preemptible
	// revocations) injected across the seeded repetitions of completed
	// simulator executions; SimTasksReexecuted the task attempts re-enqueued
	// after node loss plus speculative backups launched. Both stay 0 for
	// fault-free traffic.
	SimFaultsInjected  int64 `json:"simFaultsInjected"`
	SimTasksReexecuted int64 `json:"simTasksReexecuted"` // see SimFaultsInjected
	// Admission is the admission controller's live snapshot: outstanding
	// admitted cost, the queue bound, the current wait estimate and the
	// per-class admitted / per-reason shed totals.
	Admission admit.Snapshot `json:"admission"`
	// BreakerState names the simulator circuit breaker's current state
	// ("closed", "open", "half_open"); BreakerStateCode is its numeric twin
	// (0/1/2) for the mrserved_breaker_state gauge; BreakerTrips counts
	// closed→open transitions since start.
	BreakerState     string `json:"breakerState"`
	BreakerStateCode int    `json:"breakerStateCode"` // see BreakerState
	BreakerTrips     int64  `json:"breakerTrips"`     // see BreakerState
	// DegradedResponses counts simulator-backed answers served from the
	// model-only fallback while the breaker was open; StaleServed counts
	// expired cache entries served under pool saturation. Both stay 0 in
	// healthy operation.
	DegradedResponses int64 `json:"degradedResponses"`
	StaleServed       int64 `json:"staleServed"` // see DegradedResponses
	// Draining reports whether the service has begun shutdown drain (new
	// work is shed, in-flight work finishes).
	Draining bool `json:"draining"`
	// RequestDurations and StageDurations are the JSON twins of the
	// mrserved_request_duration_seconds and mrserved_stage_duration_seconds
	// Prometheus families: cumulative fixed-bucket latency histograms keyed
	// by request kind and by serving stage respectively.
	RequestDurations map[string]obs.HistogramSnapshot `json:"requestDurationsSeconds"`
	StageDurations   map[string]obs.HistogramSnapshot `json:"stageDurationsSeconds"` // see RequestDurations
}

// Service is a concurrent prediction engine. It is safe for use from many
// goroutines; create one with New.
type Service struct {
	opts    Options
	results *resultTable
	// profiles is the versioned registry of calibrated (trace-fitted)
	// per-class profiles referenced by request Profile fields.
	profiles *profileRegistry
	// predictors recycles allocation-lean model evaluators across requests:
	// each worker borrows one for the duration of a model run, so steady
	// traffic stops allocating the O(T²) overlap scaffolding per request.
	predictors sync.Pool
	// reqHist holds the per-kind request-latency histograms backing the
	// mrserved_request_duration_seconds family, indexed by the kind
	// constants (aligned with RequestKinds); stageHist the per-stage
	// histograms backing mrserved_stage_duration_seconds. Both are built
	// once in New and read-only afterwards, so recording needs no locks.
	reqHist   [numKinds]*obs.Histogram
	stageHist [obs.NumStages]*obs.Histogram
	// admission is the bounded cost-classed admission controller, the one
	// owner of the worker slots; breaker the consecutive-timeout circuit
	// breaker guarding simulator-backed paths.
	admission *admit.Controller
	breaker   *admit.Breaker

	predictReqs   atomic.Int64
	simulateReqs  atomic.Int64
	compareReqs   atomic.Int64
	planReqs      atomic.Int64
	calibrateReqs atomic.Int64
	hits          atomic.Int64
	misses        atomic.Int64
	inFlightSims  atomic.Int64
	simRuns       atomic.Int64
	outerIters    atomic.Int64
	innerIters    atomic.Int64
	reusedRounds  atomic.Int64
	simFaults     atomic.Int64
	simReexec     atomic.Int64
	workflowReqs  atomic.Int64
	degradedResps atomic.Int64
	staleServed   atomic.Int64
}

// Request-kind indices into the request-duration histograms, aligned with
// RequestKinds.
const (
	kindHealthz = iota
	kindMetrics
	kindProfiles
	kindPredict
	kindSimulate
	kindCompare
	kindPlan
	kindCalibrate
	kindOther
	numKinds
)

// RequestKinds is the label domain of the request-duration histograms:
// every HTTP endpoint kind plus "other" for unmatched paths, in kind-index
// order.
func RequestKinds() []string {
	return []string{
		"healthz", "metrics", "profiles",
		"predict", "simulate", "compare", "plan", "calibrate", "other",
	}
}

// New builds a Service with the given options.
func New(opts Options) *Service {
	opts.applyDefaults()
	s := &Service{
		opts:       opts,
		results:    newResultTable(opts.CacheSize, opts.CacheTTL),
		profiles:   newProfileRegistry(opts.MaxProfiles, opts.ProfileTTL),
		predictors: sync.Pool{New: func() any { return core.NewPredictor() }},
		admission: admit.NewController(admit.Config{
			Capacity:     opts.Workers,
			MaxQueueCost: opts.AdmitMaxQueueCost,
		}),
		breaker: admit.NewBreaker(admit.BreakerConfig{
			TripThreshold: opts.BreakerThreshold,
			Cooldown:      opts.BreakerCooldown,
		}),
	}
	s.results.saturated = s.admission.Saturated
	s.results.lookedUp = func(ctx context.Context, start time.Time) {
		s.endSpan(obs.FromContext(ctx), obs.StageCacheLookup, start)
	}
	for i := range s.reqHist {
		s.reqHist[i] = obs.NewHistogram(obs.DefaultLatencyBuckets())
	}
	for i := range s.stageHist {
		s.stageHist[i] = obs.NewHistogram(obs.DefaultLatencyBuckets())
	}
	return s
}

// observeRequest records one finished HTTP request into its kind's latency
// histogram (out-of-range kinds fold into "other").
func (s *Service) observeRequest(kind int, d time.Duration) {
	if kind < 0 || kind >= numKinds {
		kind = kindOther
	}
	s.reqHist[kind].Observe(d.Seconds())
}

// endSpan records one completed stage span — started at start — into both
// the request's trace (nil traces are no-ops) and the service-wide stage
// histogram. Call sites use `defer s.endSpan(tr, stage, time.Now())`: the
// argument form keeps the defer open-coded and closure-free, so a span
// costs two clock reads and no allocation.
func (s *Service) endSpan(tr *obs.Trace, stage obs.Stage, start time.Time) {
	d := time.Since(start)
	tr.Add(stage, d)
	s.stageHist[stage].Observe(d.Seconds())
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		PredictRequests:   s.predictReqs.Load(),
		SimulateRequests:  s.simulateReqs.Load(),
		CompareRequests:   s.compareReqs.Load(),
		PlanRequests:      s.planReqs.Load(),
		CalibrateRequests: s.calibrateReqs.Load(),
		CacheHits:         s.hits.Load(),
		CacheMisses:       s.misses.Load(),
		InFlightSims:      s.inFlightSims.Load(),
		SimRuns:           s.simRuns.Load(),
		CacheEntries:      s.results.len(),
		ProfilesActive:    s.profiles.liveCount(),

		ModelOuterIterations: s.outerIters.Load(),
		ModelReusedRounds:    s.reusedRounds.Load(),
		ModelInnerIterations: s.innerIters.Load(),
		WorkflowRequests:     s.workflowReqs.Load(),
		SimFaultsInjected:    s.simFaults.Load(),
		SimTasksReexecuted:   s.simReexec.Load(),

		Admission:         s.admission.Snapshot(),
		BreakerTrips:      s.breaker.Trips(),
		DegradedResponses: s.degradedResps.Load(),
		StaleServed:       s.staleServed.Load(),
		Draining:          s.admission.Draining(),

		RequestDurations: make(map[string]obs.HistogramSnapshot, numKinds),
		StageDurations:   make(map[string]obs.HistogramSnapshot, obs.NumStages),
	}
	m.BreakerStateCode = s.breaker.State()
	m.BreakerState = admit.StateName(m.BreakerStateCode)
	if tot := m.CacheHits + m.CacheMisses; tot > 0 {
		m.HitRate = float64(m.CacheHits) / float64(tot)
	}
	for i, name := range RequestKinds() {
		m.RequestDurations[name] = s.reqHist[i].Snapshot()
	}
	for i, h := range s.stageHist {
		m.StageDurations[obs.Stage(i).String()] = h.Snapshot()
	}
	return m
}

// acquire takes a worker slot from the admission controller, honoring
// cancellation while queued; the wait is the request's queue_wait stage.
// Pair it with s.admission.Release.
func (s *Service) acquire(ctx context.Context) error {
	wait, err := s.admission.Acquire(ctx)
	obs.FromContext(ctx).Add(obs.StageQueueWait, wait)
	s.stageHist[obs.StageQueueWait].Observe(wait.Seconds())
	return err
}

// StartDrain begins shutdown drain: every subsequent admission is shed with
// a draining 503 and Draining/readiness flips, while in-flight requests run
// to completion. Irreversible by design — drain precedes process exit.
func (s *Service) StartDrain() { s.admission.StartDrain() }

// Draining reports whether StartDrain was called.
func (s *Service) Draining() bool { return s.admission.Draining() }

// Overloaded reports whether the admission queue is at its bound — the
// not-ready signal for load balancers (see /readyz).
func (s *Service) Overloaded() bool { return s.admission.Overloaded() }

// errBreakerOpen aborts a simulator compute when the circuit breaker
// refuses the call; callers catch it and serve the model-only fallback.
// Raised inside the compute closure (not before the cache lookup) so cache
// hits keep flowing while the breaker is open.
var errBreakerOpen = errors.New("service: simulator circuit breaker open")

// cachedCompute serves one request through the result table (see
// resultTable.do) and counts how: a live entry, an expired one served under
// saturation (stale) and a shared in-flight result are hits; a computed and
// stored value is a miss; a value compute marked not cacheable is neither.
// compute takes its own worker slot (acquire, then s.admission.Release) so
// that a hit never waits for one and uninterruptible work can keep its slot
// past a caller's cancellation.
func (s *Service) cachedCompute(ctx context.Context, key string, compute func() (any, bool, error)) (v any, cached, stale bool, err error) {
	v, how, err := s.results.do(ctx, key, compute)
	if err != nil {
		return nil, false, false, err
	}
	tr := obs.FromContext(ctx)
	switch how {
	case computed:
		s.misses.Add(1)
		tr.AddCounter(obs.CounterCacheMisses, 1)
	case staleHit:
		s.staleServed.Add(1)
		fallthrough
	case hit:
		s.hits.Add(1)
		tr.AddCounter(obs.CounterCacheHits, 1)
	}
	return v, how == hit || how == staleHit, how == staleHit, nil
}

// PredictRequest asks for one analytic model evaluation.
type PredictRequest struct {
	// Spec is the cluster to predict on.
	Spec cluster.Spec
	// Job is the MapReduce job whose response time is estimated.
	Job workload.Job
	// NumJobs is the closed-network population (default 1).
	NumJobs int
	// Estimator selects the tree estimator (default fork/join).
	Estimator core.Estimator
	// Faults optionally describes a fault-injection scenario; the model
	// corrects its effective demands for the expected rework (retries,
	// capacity loss, stragglers, speculation). nil leaves the prediction
	// bit-identical to the fault-free model. Preemptible classes with a
	// revocation rate activate the correction even under a nil plan.
	Faults *fault.Plan
	// Profile optionally names a calibrated profile (stored via Calibrate)
	// whose fitted per-class statistics seed the model's A1 initialization
	// (§4.2.1, first approach) instead of the Herodotou static model. The
	// name resolves at evaluation time and the resolved *content* rides the
	// cache key, so recalibration can never serve stale cached predictions.
	Profile string
	// resolved pins the profile snapshot for the lifetime of one request
	// (and across every candidate of one plan); nil when Profile is empty.
	resolved *calibratedProfile
	// Workflow, when non-nil, turns the request into a DAG evaluation: the
	// stages' jobs replace Job (which is then ignored), Spec becomes the
	// default cluster of stages without their own, Profile the default
	// calibrated profile, and the response carries the composed
	// critical-path makespan plus a per-stage WorkflowReport.
	Workflow *Workflow
}

func (r *PredictRequest) validate() error {
	if r.NumJobs <= 0 {
		r.NumJobs = 1
	}
	if r.NumJobs > MaxNumJobs {
		return fmt.Errorf("service: NumJobs %d exceeds limit %d", r.NumJobs, MaxNumJobs)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if err := r.Job.Validate(); err != nil {
		return err
	}
	if err := checkCeilings(r.Spec, r.Job); err != nil {
		return err
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if _, err := r.Estimator.MarshalText(); err != nil {
		return err
	}
	return nil
}

// config is the model configuration of a validated request.
func (r *PredictRequest) config() core.Config {
	cfg := core.Config{
		Spec: r.Spec, Job: r.Job, NumJobs: r.NumJobs, Estimator: r.Estimator,
		Faults: r.Faults,
	}
	if r.resolved != nil {
		cfg.History = r.resolved.history
	}
	return cfg
}

// PredictResponse is an analytic prediction plus serving metadata. The
// embedded Prediction may be shared with other cache readers — treat it as
// read-only.
type PredictResponse struct {
	// Prediction is the model output (response time, iterations, artifacts).
	Prediction core.Prediction
	// Cached reports whether the response was served without a fresh model
	// run (a stored result or a shared in-flight computation).
	Cached bool
	// Stale reports that the answer came from an expired cache entry served
	// under pool saturation (see Options.CacheTTL); always false in healthy
	// operation.
	Stale bool
	// Profile and ProfileVersion identify the calibrated profile snapshot
	// that seeded the model (empty/0 when the request named none).
	Profile        string
	ProfileVersion int64 // see Profile
	// Workflow carries the per-stage schedule and critical path of a
	// workflow-bearing request; nil for single-job requests, whose wire
	// shape is byte-identical to the pre-workflow service.
	Workflow *WorkflowReport
}

// Predict runs (or recalls) one analytic model evaluation — or, when the
// request carries a Workflow block, the composed critical-path evaluation
// of the whole DAG.
func (s *Service) Predict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	s.predictReqs.Add(1)
	if req.Workflow != nil {
		return s.predictWorkflow(ctx, req)
	}
	return s.predict(ctx, req)
}

// resolveProfile fills req's resolved snapshot from its Profile name,
// recording the lookup as the request's profile_resolve stage. A request
// that already carries a snapshot (a plan candidate) keeps it, so one plan
// stays internally consistent even when a concurrent Calibrate swaps the
// name mid-flight.
func (s *Service) resolveProfile(ctx context.Context, name string, resolved **calibratedProfile) error {
	if *resolved != nil || name == "" {
		return nil
	}
	defer s.endSpan(obs.FromContext(ctx), obs.StageProfileResolve, time.Now())
	p, err := s.profiles.resolve(name)
	if err != nil {
		return invalid(err)
	}
	*resolved = p
	return nil
}

// predict is Predict without the API-call counter — the planner evaluates
// candidates through it so /v1/metrics keeps counting client calls, not
// internal fan-out.
func (s *Service) predict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	return s.predictEval(ctx, req, false)
}

// predictEval serves one model evaluation through the result table.
// chained computes a miss with the chained solve (PredictWarm) instead of
// the cold Predict — the planner's bisecting axis walks ask for it. Chained
// results stay within 1e-6 relative of cold ones (the core chained-solve
// contract), so the two are interchangeable cache citizens.
func (s *Service) predictEval(ctx context.Context, req PredictRequest, chained bool) (PredictResponse, error) {
	if err := req.validate(); err != nil {
		return PredictResponse{}, invalid(err)
	}
	if err := s.resolveProfile(ctx, req.Profile, &req.resolved); err != nil {
		return PredictResponse{}, err
	}
	v, cached, stale, err := s.cachedCompute(ctx, predictKey(req), func() (any, bool, error) {
		if err := s.acquire(ctx); err != nil {
			return nil, false, err
		}
		defer s.admission.Release()
		cfg := req.config()
		tr := obs.FromContext(ctx)
		solveStart := time.Now()
		var pred core.Prediction
		var err error
		p := s.predictors.Get().(*core.Predictor)
		if chained {
			pred, err = p.PredictWarmContext(ctx, cfg)
		} else {
			pred, err = p.PredictContext(ctx, cfg)
		}
		s.predictors.Put(p)
		s.endSpan(tr, obs.StageModelSolve, solveStart)
		if err != nil {
			return nil, false, err
		}
		s.outerIters.Add(int64(pred.Iterations))
		s.innerIters.Add(int64(pred.InnerIterations))
		s.reusedRounds.Add(int64(pred.ReusedRounds))
		tr.AddCounter(obs.CounterPredicts, 1)
		tr.AddCounter(obs.CounterOuterIterations, int64(pred.Iterations))
		tr.AddCounter(obs.CounterInnerIterations, int64(pred.InnerIterations))
		tr.AddCounter(obs.CounterCells, int64(pred.Cells))
		tr.AddCounter(obs.CounterReusedRounds, int64(pred.ReusedRounds))
		tr.AddCounter(obs.CounterRebuiltRounds, int64(pred.RebuiltRounds))
		return pred, true, nil
	})
	if err != nil {
		return PredictResponse{}, err
	}
	out := PredictResponse{Prediction: v.(core.Prediction), Cached: cached, Stale: stale}
	if req.resolved != nil {
		out.Profile = req.resolved.info.Name
		out.ProfileVersion = req.resolved.info.Version
	}
	return out, nil
}

// SimulateRequest asks for a median-of-seeds simulator execution.
type SimulateRequest struct {
	// Spec is the cluster to simulate.
	Spec cluster.Spec
	// Jobs is the workload: every job is submitted at t = 0.
	Jobs []workload.Job
	// Seed anchors the consecutive-seed repetitions.
	Seed int64
	// Reps is the median-of-seeds repetition count (default Options.SimReps).
	Reps int
	// Policy orders applications in the RM root queue.
	Policy yarn.Policy
	// Faults optionally injects node failures, straggler tails and
	// speculative re-execution into every seeded repetition. nil leaves the
	// runs bit-identical to fault-free simulations; preemptible classes with
	// a revocation rate are revoked even under a nil plan.
	Faults *fault.Plan
}

func (r *SimulateRequest) validate(defaultReps int) error {
	if r.Reps <= 0 {
		r.Reps = defaultReps
	}
	if r.Reps > MaxSimReps {
		return fmt.Errorf("service: Reps %d exceeds limit %d", r.Reps, MaxSimReps)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if err := checkNodes(r.Spec); err != nil {
		return err
	}
	if len(r.Jobs) == 0 {
		return errors.New("service: simulate needs at least one job")
	}
	if len(r.Jobs) > MaxSimJobs {
		return fmt.Errorf("service: %d jobs exceeds limit %d", len(r.Jobs), MaxSimJobs)
	}
	for i, j := range r.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("service: job %d: %w", i, err)
		}
		if err := checkModelCells(r.Spec, j); err != nil {
			return fmt.Errorf("%w (job %d)", err, i)
		}
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if _, err := r.Policy.MarshalText(); err != nil {
		return err
	}
	return nil
}

// SimQuantiles reports mean job response time at fixed quantiles of the
// seeded repetitions, ordered by mean response. With one rep all three
// coincide; under fault injection the spread is the scenario's risk profile.
type SimQuantiles struct {
	// P50 is the median draw's mean response (what Result reports).
	P50 float64 `json:"p50"`
	// P95 and P99 are the tail draws: planning material under faults.
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"` // see P95
}

// simOutcome is the cached payload of one simulator execution: the median
// run plus the quantile summary and the failed-seed count of the batch.
type simOutcome struct {
	median    mrsim.Result
	quantiles SimQuantiles
	failed    int
}

// SimulateResponse is a simulator execution plus serving metadata. The
// embedded Result may be shared with other cache readers — treat it as
// read-only.
type SimulateResponse struct {
	// Result is the median run of the seeded repetitions.
	Result mrsim.Result
	// Quantiles summarizes the batch's mean response at p50/p95/p99.
	Quantiles SimQuantiles
	// FailedSeeds counts seeded repetitions that errored (tolerated as long
	// as a majority succeeds; fault injection makes seeds legitimately
	// fallible).
	FailedSeeds int
	// Cached reports whether the response was served without a fresh run.
	Cached bool
	// Degraded reports that the simulator circuit breaker was open and the
	// response was synthesized from the analytic model instead of simulated:
	// Result carries the model's response time per job, Events is 0 and all
	// quantiles coincide. Degraded responses are never cached.
	Degraded bool
	// Stale reports an expired cache entry served under pool saturation
	// (see Options.CacheTTL).
	Stale bool
}

// Simulate runs (or recalls) a batch of consecutively seeded cluster
// simulations and reports the median run plus the batch's p50/p95/p99
// response quantiles. The run honors ctx: cancellation aborts the
// discrete-event engine at its next poll boundary and Simulate returns
// ctx.Err() promptly.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	s.simulateReqs.Add(1)
	return s.simulate(ctx, req)
}

// simulate is Simulate without the API-call counter (see predict).
//
// The circuit breaker gates the compute closure, not the cache: cached
// results keep flowing while the breaker is open (they cost nothing and
// can't time out), and the single half-open probe is a real simulator run
// rather than a cache hit that would report a misleading Success. When the
// breaker refuses, the response degrades to a model-only synthesis flagged
// Degraded — and is never cached, since the compute aborted with an error.
func (s *Service) simulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	if err := req.validate(s.opts.SimReps); err != nil {
		return SimulateResponse{}, invalid(err)
	}
	v, cached, stale, err := s.cachedCompute(ctx, simulateKey(req), func() (any, bool, error) {
		if !s.breaker.Allow() {
			return nil, false, errBreakerOpen
		}
		o, err := s.runSim(ctx, req)
		switch {
		case err == nil:
			s.breaker.Success()
		case errors.Is(err, context.DeadlineExceeded):
			s.breaker.Timeout()
		}
		return o, true, err
	})
	if errors.Is(err, errBreakerOpen) {
		return s.degradedSimulate(ctx, req)
	}
	if err != nil {
		return SimulateResponse{}, err
	}
	o := v.(simOutcome)
	return SimulateResponse{Result: o.median, Quantiles: o.quantiles, FailedSeeds: o.failed, Cached: cached, Stale: stale}, nil
}

// degradedSimulate synthesizes a SimulateResponse from the analytic model
// while the simulator breaker is open: the model predicts the mean response
// of the closed network of len(Jobs) concurrent copies of the first job, and
// every per-job response (and all quantiles) carries that estimate. The
// shape is honest about its provenance — Events is 0, Degraded is true —
// and the result bypasses the cache entirely.
func (s *Service) degradedSimulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	s.degradedResps.Add(1)
	pred, err := s.predict(ctx, PredictRequest{
		Spec: req.Spec, Job: req.Jobs[0], NumJobs: len(req.Jobs),
		Faults: req.Faults,
	})
	if err != nil {
		return SimulateResponse{}, err
	}
	rt := pred.Prediction.ResponseTime
	res := mrsim.Result{Jobs: make([]mrsim.JobResult, len(req.Jobs)), Makespan: rt}
	for i := range res.Jobs {
		res.Jobs[i] = mrsim.JobResult{JobID: i, Response: rt, End: rt}
	}
	return SimulateResponse{
		Result:    res,
		Quantiles: SimQuantiles{P50: rt, P95: rt, P99: rt},
		Degraded:  true,
	}, nil
}

// runSim executes the seeded simulation batch under a worker-pool slot,
// synchronously: mrsim threads ctx into the event loop, so a canceled caller
// aborts the engine instead of orphaning a multi-second run. A leader that
// dies of its own cancellation is safe — callers waiting on its result
// retry as the new leader (TestFlightFollowerSurvivesLeaderCancel).
func (s *Service) runSim(ctx context.Context, req SimulateRequest) (simOutcome, error) {
	if err := s.acquire(ctx); err != nil {
		return simOutcome{}, err
	}
	defer s.admission.Release()
	s.inFlightSims.Add(1)
	defer s.inFlightSims.Add(-1)
	defer s.endSpan(obs.FromContext(ctx), obs.StageSimulate, time.Now())
	runs, failed, err := mrsim.RunSeedsContext(ctx, mrsim.Config{
		Spec: req.Spec, Jobs: req.Jobs, Seed: req.Seed, Scheduler: req.Policy,
		Faults: req.Faults,
	}, req.Reps)
	if err != nil {
		return simOutcome{}, err
	}
	s.simRuns.Add(1)
	var injected, reexec int64
	for _, r := range runs {
		if f := r.Faults; f != nil {
			injected += int64(f.NodeFailures)
			reexec += int64(f.TasksReexecuted + f.SpeculativeLaunched)
		}
	}
	if injected > 0 {
		s.simFaults.Add(injected)
	}
	if reexec > 0 {
		s.simReexec.Add(reexec)
	}
	out := simOutcome{
		median: mrsim.Quantile(runs, 0.5),
		quantiles: SimQuantiles{
			P50: mrsim.Quantile(runs, 0.5).MeanResponse(),
			P95: mrsim.Quantile(runs, 0.95).MeanResponse(),
			P99: mrsim.Quantile(runs, 0.99).MeanResponse(),
		},
		failed: failed,
	}
	out.median.FailedSeeds = failed
	return out, nil
}

// CompareRequest validates the model against the simulator for one
// configuration: numJobs concurrent copies of Job (fair scheduling when
// numJobs > 1, mirroring the paper's multi-job methodology).
type CompareRequest struct {
	// Spec is the cluster both sides run on.
	Spec cluster.Spec
	// Job is the job template; NumJobs identical copies are executed.
	Job workload.Job
	// NumJobs is the concurrent-job population (default 1).
	NumJobs int
	// Seed anchors the simulator's consecutive-seed repetitions.
	Seed int64
	// Reps is the median-of-seeds repetition count (default Options.SimReps).
	Reps int
	// Faults injects the scenario into the simulator side and applies the
	// matching analytic correction on the model side, so the comparison
	// measures the fault correction's accuracy.
	Faults *fault.Plan
	// Profile optionally names a calibrated profile seeding the model side
	// of the comparison (see PredictRequest.Profile); the simulator side is
	// unaffected — it executes the job's workload profile directly.
	Profile  string
	resolved *calibratedProfile
}

func (r *CompareRequest) validate(defaultReps int) error {
	if r.NumJobs <= 0 {
		r.NumJobs = 1
	}
	if r.NumJobs > MaxNumJobs {
		return fmt.Errorf("service: NumJobs %d exceeds limit %d", r.NumJobs, MaxNumJobs)
	}
	if r.Reps <= 0 {
		r.Reps = defaultReps
	}
	if r.Reps > MaxSimReps {
		return fmt.Errorf("service: Reps %d exceeds limit %d", r.Reps, MaxSimReps)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if err := r.Job.Validate(); err != nil {
		return err
	}
	return checkCeilings(r.Spec, r.Job)
}

// CompareResponse reports both model estimates against the simulated truth.
type CompareResponse struct {
	// Simulated is the median measured mean job response time.
	Simulated float64
	// ForkJoin and Tripathi are the two model estimates; the *Err fields are
	// signed relative errors vs. Simulated (positive = overestimate).
	ForkJoin    float64
	Tripathi    float64 // see ForkJoin
	ForkJoinErr float64 // see ForkJoin
	TripathiErr float64 // see ForkJoin
	// Cached reports whether the comparison was served without computing.
	Cached bool
	// Degraded reports that the simulator breaker was open, so "Simulated"
	// is itself a model synthesis (see SimulateResponse.Degraded) and the
	// error columns measure model-vs-model agreement, not accuracy. Wire
	// tags keep both resilience flags omitted in healthy operation.
	Degraded bool `json:"Degraded,omitempty"`
	// Stale reports an expired cache entry served under pool saturation.
	Stale bool `json:"Stale,omitempty"`
	// Profile and ProfileVersion identify the calibrated profile snapshot
	// that seeded the model side (empty/0 when the request named none).
	Profile        string
	ProfileVersion int64 // see Profile
}

// Compare validates both model variants against a simulated execution.
func (s *Service) Compare(ctx context.Context, req CompareRequest) (CompareResponse, error) {
	s.compareReqs.Add(1)
	if err := req.validate(s.opts.SimReps); err != nil {
		return CompareResponse{}, invalid(err)
	}
	if err := s.resolveProfile(ctx, req.Profile, &req.resolved); err != nil {
		return CompareResponse{}, err
	}
	v, cached, stale, err := s.cachedCompute(ctx, compareKey(req), func() (any, bool, error) {
		resp, err := s.runCompare(ctx, req)
		// A degraded comparison is served but not cached: the next one
		// after the breaker closes recomputes against a real simulation.
		return resp, !resp.Degraded, err
	})
	if err != nil {
		return CompareResponse{}, err
	}
	out := v.(CompareResponse)
	out.Cached, out.Stale = cached, stale
	if req.resolved != nil {
		out.Profile = req.resolved.info.Name
		out.ProfileVersion = req.resolved.info.Version
	}
	return out, nil
}

func (s *Service) runCompare(ctx context.Context, req CompareRequest) (CompareResponse, error) {
	jobs := make([]workload.Job, req.NumJobs)
	for i := range jobs {
		j := req.Job
		j.ID = i
		jobs[i] = j
	}
	pol := yarn.PolicyFIFO
	if req.NumJobs > 1 {
		pol = yarn.PolicyFair
	}
	// The inner simulation goes through the shared result table under its
	// own key: a Compare after (or concurrent with) a Simulate of
	// the same configuration reuses its run, and vice versa.
	sim, err := s.simulate(ctx, SimulateRequest{
		Spec: req.Spec, Jobs: jobs, Seed: req.Seed, Reps: req.Reps, Policy: pol,
		Faults: req.Faults,
	})
	if err != nil {
		return CompareResponse{}, err
	}
	res := sim.Result
	if err := s.acquire(ctx); err != nil {
		return CompareResponse{}, err
	}
	defer s.admission.Release()
	cfg := core.Config{Spec: req.Spec, Job: req.Job, NumJobs: req.NumJobs, Faults: req.Faults}
	if req.resolved != nil {
		cfg.History = req.resolved.history
	}
	// Both estimators from one outer loop, on this pool worker: the pool
	// owns the concurrency budget, so the solve spawns nothing.
	solveStart := time.Now()
	preds, err := core.PredictEach(ctx, cfg, core.EstimatorForkJoin, core.EstimatorTripathi)
	s.endSpan(obs.FromContext(ctx), obs.StageModelSolve, solveStart)
	if err != nil {
		return CompareResponse{}, err
	}
	fj, tp := preds[0], preds[1]
	measured := res.MeanResponse()
	return CompareResponse{
		Simulated:   measured,
		ForkJoin:    fj.ResponseTime,
		Tripathi:    tp.ResponseTime,
		ForkJoinErr: stats.SignedRelError(fj.ResponseTime, measured),
		TripathiErr: stats.SignedRelError(tp.ResponseTime, measured),
		Degraded:    sim.Degraded,
	}, nil
}
