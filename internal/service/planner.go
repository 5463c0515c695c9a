package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// maxPlanCandidates bounds one plan's grid so a single request cannot pin
// the pool indefinitely; split larger sweeps across calls.
const maxPlanCandidates = 4096

// PlanRequest is a what-if grid search: the cartesian product of the axis
// slices is evaluated in parallel, each candidate derived from the base
// cluster/job template. An empty axis keeps the template's value. This
// generalizes the capacity-planning and deadline examples (examples/
// capacityplanning, examples/deadline) into one API call: set DeadlineSec
// and read Best.
type PlanRequest struct {
	// Spec is the node-hardware template; the Nodes axis overrides only its
	// NumNodes field, keeping per-node capacities and bandwidths.
	Spec cluster.Spec
	// Job is the job template; the BlockSizesMB and Reducers axes override
	// its BlockSizeMB / NumReduces fields.
	Job workload.Job
	// NumJobs is the concurrent-job population of every candidate (default 1).
	NumJobs int
	// Estimator selects the analytic tree estimator (default fork/join).
	Estimator core.Estimator
	// Profile optionally names a calibrated profile seeding every
	// model-backed candidate (see PredictRequest.Profile). The name resolves
	// once per plan, so all candidates share one snapshot even if a
	// concurrent Calibrate replaces it mid-plan. Rejected when UseSimulator
	// is set: the simulator has no model initialization to seed, and
	// silently ignoring the reference would mislabel every candidate.
	Profile  string
	resolved *calibratedProfile

	// Nodes, BlockSizesMB and Reducers are grid axes over cluster size,
	// HDFS block size and reducer count. Empty slices keep the template's
	// value.
	Nodes        []int
	BlockSizesMB []float64 // see Nodes
	Reducers     []int     // see Nodes
	// ClassCounts sweeps heterogeneous class *mixes* instead of the flat
	// Nodes axis: each entry is a per-class node-count vector over
	// Spec.Classes (same order; zero drops the class from that candidate,
	// e.g. {4,0} and {2,2} sweep "4 fast" vs "2 fast + 2 slow"). Requires a
	// class-form Spec and is mutually exclusive with Nodes.
	ClassCounts [][]int
	// Policies only differentiates candidates when UseSimulator is set: the
	// analytic model has no scheduler-policy input, so model-backed
	// candidates that differ only in policy share one cached prediction.
	Policies []yarn.Policy

	// DeadlineSec, when positive, marks candidates meeting it as feasible
	// and selects Best as the cheapest feasible candidate (fewest
	// node-seconds); when zero, Best is simply the fastest candidate.
	DeadlineSec float64

	// Exhaustive forces the full grid even when the deadline fast path
	// (bisection on the node axis + dominance pruning, see search.go)
	// applies. The fast path returns the same Best with far fewer model
	// evaluations; set Exhaustive to get every grid point evaluated, e.g.
	// to plot the whole response surface.
	Exhaustive bool

	// UseSimulator evaluates candidates on the discrete-event simulator
	// (median of Reps seeded runs from Seed) instead of the analytic model —
	// slower, but scheduler-policy-aware.
	UseSimulator bool
	Seed         int64 // see UseSimulator
	Reps         int   // see UseSimulator

	// Faults applies a fault-injection scenario to every candidate: injected
	// into simulator-backed evaluations, corrected for analytically in
	// model-backed ones. Preemptible classes in the template (or its mixes)
	// carry their revocation hazard either way, so the planner prices
	// reliable-vs-preemptible trade-offs under failure risk.
	Faults *fault.Plan
	// Quantile selects which seeded-run quantile a simulator-backed
	// candidate's ResponseTime reports: 0.5 (the default when 0), 0.95 or
	// 0.99. Planning against p99 under a fault scenario answers "cheapest
	// mix that meets the deadline even in bad draws". Rejected without
	// UseSimulator — the analytic model predicts means, not quantiles.
	Quantile float64

	// Workflow, when non-nil, plans a whole DAG instead of one job: each
	// candidate's ResponseTime is the composed critical-path makespan of
	// the workflow on that candidate's cluster (stages with their own Spec
	// keep it; the rest inherit the swept spec). Only the cluster axes
	// (Nodes or ClassCounts) apply — job-shape axes and UseSimulator are
	// rejected, and Job is ignored.
	Workflow *Workflow
}

// validate checks the request and defaults NumJobs. The cluster axes, the
// deadline, faults, estimator and quantile rules are shared; job-shape axes
// and the simulator belong to single-job plans only, because workflow
// stages fix their own jobs and the simulator has no DAG support on the
// plan axis.
func (r *PlanRequest) validate() error {
	if r.NumJobs <= 0 {
		r.NumJobs = 1
	}
	if r.NumJobs > MaxNumJobs {
		return fmt.Errorf("service: NumJobs %d exceeds limit %d", r.NumJobs, MaxNumJobs)
	}
	if r.Workflow != nil {
		if r.UseSimulator {
			return errors.New("service: workflow plans are analytic; the simulator sweep has no DAG support on the plan axis")
		}
		if len(r.BlockSizesMB) > 0 || len(r.Reducers) > 0 || len(r.Policies) > 0 {
			return errors.New("service: workflow plans sweep only the cluster axes (nodes or classCounts); stage jobs fix their own block sizes and reducers")
		}
	} else if err := r.validateJob(); err != nil {
		return err
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if _, err := r.Estimator.MarshalText(); err != nil {
		return err
	}
	for _, n := range r.Nodes {
		if n <= 0 {
			return fmt.Errorf("service: plan node count %d must be positive", n)
		}
	}
	if len(r.Nodes) > 0 && r.Spec.Heterogeneous() {
		// A bare node count is ambiguous over a class table; silently keeping
		// the template would mislabel every candidate.
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
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if r.Quantile != 0 {
		if !r.UseSimulator {
			return errors.New("service: quantile planning needs useSimulator (the analytic model predicts means)")
		}
		switch r.Quantile {
		case 0.5, 0.95, 0.99:
		default:
			return fmt.Errorf("service: quantile %v not supported (want 0.5, 0.95 or 0.99)", r.Quantile)
		}
	}
	return r.checkCeilings()
}

// checkCeilings holds every candidate of the plan to the request ceilings:
// the template's and each axis point's cluster to MaxNodes, and the grid's
// largest model job (smallest block size, most reducers; each workflow
// stage) to MaxModelCells on the template's class table, the widest any
// candidate has.
func (r *PlanRequest) checkCeilings() error {
	if err := checkNodes(r.Spec); err != nil {
		return err
	}
	for _, ch := range nodeChoices(r) {
		if err := checkNodes(candidateSpec(r, ch)); err != nil {
			return err
		}
	}
	if r.Workflow != nil {
		for _, st := range r.Workflow.Stages {
			var err error
			if st.Spec != nil {
				err = checkCeilings(*st.Spec, st.Job)
			} else {
				err = checkModelCells(r.Spec, st.Job)
			}
			if err != nil {
				return fmt.Errorf("%w (workflow stage %q)", err, st.Name)
			}
		}
		return nil
	}
	job := r.Job
	job.BlockSizeMB = slices.Min(axisFloats(r.BlockSizesMB, r.Job.BlockSizeMB))
	job.NumReduces = slices.Max(axisInts(r.Reducers, r.Job.NumReduces))
	return checkModelCells(r.Spec, job)
}

// validateJob checks the single-job plan's own fields: the job template,
// its axes and the simulator options.
func (r *PlanRequest) validateJob() error {
	if r.Reps > MaxSimReps {
		return fmt.Errorf("service: Reps %d exceeds limit %d", r.Reps, MaxSimReps)
	}
	if err := r.Job.Validate(); err != nil {
		return err
	}
	for _, b := range r.BlockSizesMB {
		if b <= 0 {
			return fmt.Errorf("service: plan block size %v must be positive", b)
		}
	}
	for _, red := range r.Reducers {
		if red <= 0 {
			return fmt.Errorf("service: plan reducer count %d must be positive", red)
		}
	}
	for _, p := range r.Policies {
		if _, err := p.MarshalText(); err != nil {
			return err
		}
	}
	if r.UseSimulator && r.Profile != "" {
		return errors.New("service: calibrated profiles seed the analytic model; simulator-backed plans cannot use one")
	}
	return nil
}

// PlanCandidate is one evaluated grid point.
type PlanCandidate struct {
	// Nodes is the candidate's total cluster size.
	Nodes int `json:"nodes"`
	// ClassCounts is the per-class node-count vector of a heterogeneous mix
	// candidate (ordered like the template's Classes); nil on the flat node
	// axis. Nodes always carries the total.
	ClassCounts []int       `json:"classCounts,omitempty"`
	BlockSizeMB float64     `json:"blockSizeMB"` // candidate HDFS block size
	Reducers    int         `json:"reducers"`    // candidate reducer count
	Policy      yarn.Policy `json:"policy"`      // candidate scheduler policy

	// ResponseTime is the predicted (or simulated) mean job response time —
	// at the request's Quantile for simulator-backed plans (p50 by default).
	ResponseTime float64 `json:"responseTime"`
	// NodeSeconds is the capacity cost proxy: ResponseTime × Nodes.
	NodeSeconds float64 `json:"nodeSeconds"`
	// Cost is the price-weighted cost: ResponseTime × Σ count×price over the
	// candidate's node classes, with unpriced classes at 1 — so Cost equals
	// NodeSeconds exactly when no class sets a price. Deadline plans rank
	// feasible candidates by Cost, which is how discounted preemptible
	// capacity can beat smaller reliable clusters despite its revocation
	// risk inflating ResponseTime.
	Cost float64 `json:"cost"`
	// FailedSeeds counts errored seeded repetitions behind a
	// simulator-backed candidate (0 for model-backed ones).
	FailedSeeds int `json:"failedSeeds,omitempty"`
	// Feasible reports ResponseTime <= DeadlineSec (always false when the
	// request set no deadline).
	Feasible bool `json:"feasible"`
	// Cached reports whether this candidate was served from the cache.
	Cached bool `json:"cached"`
	// Degraded reports a simulator-backed candidate that fell back to the
	// model while the circuit breaker was open (see
	// SimulateResponse.Degraded); absent on healthy evaluations.
	Degraded bool `json:"degraded,omitempty"`
	// Err is set when this candidate failed to evaluate (the rest of the
	// grid still completes).
	Err string `json:"err,omitempty"`
}

// Plan strategies reported in PlanResponse.
const (
	// StrategyGrid is the exhaustive cartesian sweep.
	StrategyGrid = "grid"
	// StrategySearch is the deadline fast path: node-axis bisection plus
	// dominance pruning (search.go).
	StrategySearch = "search"
)

// PlanResponse is the evaluated grid, sorted best-first.
type PlanResponse struct {
	// Candidates is sorted: with a deadline, feasible candidates first by
	// ascending node-seconds; without one, by ascending response time. The
	// search strategy omits pruned grid points (see Pruned).
	Candidates []PlanCandidate `json:"candidates"`
	// Best points at Candidates[0] when it satisfies the request objective:
	// the cheapest feasible candidate, or (with no deadline) the fastest.
	// Nil when a deadline was set and no candidate meets it.
	Best *PlanCandidate `json:"best,omitempty"`
	// Evaluated counts candidates that produced a result (no Err).
	Evaluated int `json:"evaluated"`
	// Pruned counts grid points the search strategy skipped: provably
	// infeasible (below the feasibility frontier) or cost-dominated by an
	// evaluated candidate. Always 0 for the grid strategy.
	Pruned int `json:"pruned,omitempty"`
	// Strategy reports how the plan was evaluated: "grid" or "search".
	Strategy string `json:"strategy"`
	// DeadlineExceeded reports a plan whose time budget expired mid-sweep:
	// the response carries the candidates evaluated before the deadline
	// (partial but honest — every listed candidate is real) instead of an
	// opaque 504. Unevaluated grid points simply carry Err. Absent when the
	// plan completed.
	DeadlineExceeded bool `json:"deadlineExceeded,omitempty"`
}

// partialOnDeadline converts a deadline expiry after the fan-out into a
// partial response: when at least one candidate evaluated, the plan returns
// what it has with DeadlineExceeded set rather than discarding paid-for
// work behind a 504. Cancellation (a gone client) and a deadline that beat
// every candidate still propagate as errors.
func partialOnDeadline(ctx context.Context, resp PlanResponse) (PlanResponse, error) {
	err := ctx.Err()
	if err == nil {
		return resp, nil
	}
	if errors.Is(err, context.DeadlineExceeded) && resp.Evaluated > 0 {
		resp.DeadlineExceeded = true
		return resp, nil
	}
	return PlanResponse{}, err
}

// axis returns the grid values for one dimension, defaulting to the
// template's value.
func axisInts(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

func axisFloats(vals []float64, def float64) []float64 {
	if len(vals) == 0 {
		return []float64{def}
	}
	return vals
}

func axisPolicies(vals []yarn.Policy) []yarn.Policy {
	if len(vals) == 0 {
		return []yarn.Policy{yarn.PolicyFIFO}
	}
	return vals
}

// nodeChoice is one point of the cluster-size axis: either a flat node count
// or a heterogeneous class mix (counts non-nil, nodes = total).
type nodeChoice struct {
	nodes  int
	counts []int
}

// nodeChoices expands the request's cluster-size axis. ClassCounts wins over
// Nodes (they are mutually exclusive after validation); with neither, the
// template's own size is the single choice.
func nodeChoices(req *PlanRequest) []nodeChoice {
	if len(req.ClassCounts) > 0 {
		out := make([]nodeChoice, len(req.ClassCounts))
		for i, mix := range req.ClassCounts {
			total := 0
			for _, n := range mix {
				total += n
			}
			out[i] = nodeChoice{nodes: total, counts: mix}
		}
		return out
	}
	ns := axisInts(req.Nodes, req.Spec.TotalNodes())
	out := make([]nodeChoice, len(ns))
	for i, n := range ns {
		out[i] = nodeChoice{nodes: n}
	}
	return out
}

// Plan evaluates the what-if request and ranks the outcomes (planAxes).
// Deadline queries backed by the analytic model run the bisection +
// pruning search (search.go); everything else evaluates the full grid in
// parallel. Each candidate flows through the same result table and worker
// slots as a direct Predict or Simulate call, so overlapping plans share
// work — a workflow candidate is the workflow Predict at its cluster.
func (s *Service) Plan(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	s.planReqs.Add(1)
	if req.Workflow != nil {
		s.workflowReqs.Add(1)
	}
	if err := req.validate(); err != nil {
		return PlanResponse{}, invalid(err)
	}
	var rw *resolvedWorkflow
	if req.Workflow != nil {
		var err error
		rw, err = s.resolveWorkflow(ctx, &PredictRequest{
			NumJobs: req.NumJobs, Estimator: req.Estimator, Faults: req.Faults,
			Profile: req.Profile, Workflow: req.Workflow,
		})
		if err != nil {
			return PlanResponse{}, err
		}
	} else if err := s.resolveProfile(ctx, req.Profile, &req.resolved); err != nil {
		return PlanResponse{}, err
	}
	// The whole strategy evaluation — grid fan-out or bisection search — is
	// one plan_search span; the candidates' own model_solve/cache_lookup
	// spans nest inside it on the same trace.
	defer s.endSpan(obs.FromContext(ctx), obs.StagePlanSearch, time.Now())

	choices := nodeChoices(&req)
	units := s.planUnits(ctx, &req, rw)
	total := len(choices) * len(units)
	if total > maxPlanCandidates {
		return PlanResponse{}, invalid(fmt.Errorf("service: plan grid has %d candidates (max %d); split the sweep",
			total, maxPlanCandidates))
	}

	return s.planAxes(ctx, req, choices, units)
}

// planUnit is one combination of a plan's non-node axes: every candidate
// is a (cluster choice, unit) pair. A single-job plan has one unit per
// (block size, reducers, policy) combo; a workflow plan has exactly one.
type planUnit struct {
	// proto carries the unit's axis values, copied into each of its
	// candidates.
	proto PlanCandidate
	// bisect reports a response curve the deadline search may bisect along
	// the node axis: a single reducer, or every workflow stage
	// single-reducer (see search.go).
	bisect bool
	// eval returns c with its result filled in at its cluster (c.Nodes,
	// c.ClassCounts), and whether the answer passed the model's ε-test (a
	// simulated one always does). It is safe for concurrent use.
	eval func(c PlanCandidate) (out PlanCandidate, converged bool, err error)
}

// planUnits expands the request's non-node axes into units, in grid order.
func (s *Service) planUnits(ctx context.Context, req *PlanRequest, rw *resolvedWorkflow) []planUnit {
	if rw != nil {
		bisect := true
		for _, st := range req.Workflow.Stages {
			bisect = bisect && st.Job.NumReduces == 1
		}
		return []planUnit{{bisect: bisect, eval: func(c PlanCandidate) (PlanCandidate, bool, error) {
			return s.evalWorkflowCandidate(ctx, req, rw, c)
		}}}
	}
	eval := func(c PlanCandidate) (PlanCandidate, bool, error) {
		return s.evalCandidate(ctx, req, c)
	}
	var units []planUnit
	for _, b := range axisFloats(req.BlockSizesMB, req.Job.BlockSizeMB) {
		for _, red := range axisInts(req.Reducers, req.Job.NumReduces) {
			for _, pol := range axisPolicies(req.Policies) {
				units = append(units, planUnit{
					proto:  PlanCandidate{BlockSizeMB: b, Reducers: red, Policy: pol},
					bisect: red == 1,
					eval:   eval,
				})
			}
		}
	}
	return units
}

// candidateSpec derives one grid point's cluster: a class mix rebuilds the
// template's class table with the mix's counts (zero-count classes drop
// out); the flat node axis overrides only NumNodes, keeping per-node
// capacities and bandwidths; and a class-form template without a mix axis is
// used as-is.
func candidateSpec(req *PlanRequest, ch nodeChoice) cluster.Spec {
	spec := req.Spec
	if ch.counts != nil {
		classes := make([]cluster.NodeClass, 0, len(ch.counts))
		for i, n := range ch.counts {
			if n == 0 {
				continue
			}
			cl := req.Spec.Classes[i]
			cl.Count = n
			classes = append(classes, cl)
		}
		spec.Classes = classes
		spec.NumNodes = 0
		return spec
	}
	if !spec.Heterogeneous() {
		spec.NumNodes = ch.nodes
	}
	return spec
}

// evalCandidate evaluates one single-job grid point via the cached
// Predict/Simulate paths.
func (s *Service) evalCandidate(ctx context.Context, req *PlanRequest, c PlanCandidate) (PlanCandidate, bool, error) {
	spec := candidateSpec(req, nodeChoice{nodes: c.Nodes, counts: c.ClassCounts})
	job := req.Job
	job.BlockSizeMB = c.BlockSizeMB
	job.NumReduces = c.Reducers
	if !req.UseSimulator {
		resp, err := s.predict(ctx, PredictRequest{
			Spec: spec, Job: job, NumJobs: req.NumJobs, Estimator: req.Estimator,
			Faults: req.Faults, Profile: req.Profile, resolved: req.resolved,
		})
		if err != nil {
			return c, false, err
		}
		c.ResponseTime = resp.Prediction.ResponseTime
		c.Cached = resp.Cached
		return c, resp.Prediction.Converged, nil
	}

	// The simulator runs NumJobs identical copies of the derived job.
	sr, err := s.simulate(ctx, SimulateRequest{
		Spec: spec, Jobs: job.Copies(req.NumJobs), Seed: req.Seed, Reps: req.Reps, Policy: c.Policy,
		Faults: req.Faults,
	})
	if err != nil {
		return c, false, err
	}
	switch req.Quantile {
	case 0.95:
		c.ResponseTime = sr.Quantiles.P95
	case 0.99:
		c.ResponseTime = sr.Quantiles.P99
	default:
		c.ResponseTime = sr.Result.MeanResponse()
	}
	c.FailedSeeds = sr.FailedSeeds
	c.Cached = sr.Cached
	c.Degraded = sr.Degraded
	return c, true, nil
}

// sortCandidates ranks the grid best-first. Failed candidates sink to the
// bottom. With a deadline the objective is price-weighted cost among
// feasible candidates (identical to node-seconds when no class is priced);
// otherwise raw speed.
func sortCandidates(cands []PlanCandidate, hasDeadline bool) {
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if (ca.Err == "") != (cb.Err == "") {
			return ca.Err == ""
		}
		if ca.Err != "" {
			return false
		}
		if hasDeadline {
			if ca.Feasible != cb.Feasible {
				return ca.Feasible
			}
			if ca.Feasible {
				if ca.Cost != cb.Cost {
					return ca.Cost < cb.Cost
				}
				return ca.ResponseTime < cb.ResponseTime
			}
		}
		if ca.ResponseTime != cb.ResponseTime {
			return ca.ResponseTime < cb.ResponseTime
		}
		return ca.Cost < cb.Cost
	})
}
