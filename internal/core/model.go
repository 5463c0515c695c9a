// Package core implements the paper's MapReduce performance model for
// Hadoop 2.x: the modified Mean Value Analysis algorithm of §4.2 (activities
// A1–A6).
//
// Given a cluster specification, a job description and the number of
// concurrent jobs, the model iterates:
//
//	A1  initialize task residence and response times (history trace or the
//	    Herodotou static model);
//	A2  build the timeline (Algorithm 1) from current response times;
//	A3  build the precedence tree from the timeline;
//	A4  compute intra-job (α) and inter-job (β) overlap factors;
//	A5  run the overlap-weighted MVA step to re-estimate task response
//	    times under queueing at the CPU&Memory and Network centers;
//	A6  estimate the job response time from the tree (Tripathi-based or
//	    fork/join-based) and test convergence (ε = 1e-7).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/dist"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/mva"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// Estimator selects the job-level response-time estimation over the
// precedence tree (§4.2.4).
type Estimator int

// Estimators.
const (
	// EstimatorForkJoin is the paper's fork/join-based approach with the H₂
	// inflation attenuated by the node's coefficient of variation:
	// R_P = max(T_l,T_r)·(1+(H₂−1)·cv). For exponential children (cv=1) this
	// equals the paper's literal 3/2·max rule.
	EstimatorForkJoin Estimator = iota
	// EstimatorTripathi fits Erlang/Hyperexponential distributions per child
	// and propagates max/sum moments numerically.
	EstimatorTripathi
	// EstimatorPaperLiteral applies R_P = 3/2·max(T_l,T_r) verbatim.
	EstimatorPaperLiteral
)

func (e Estimator) String() string {
	switch e {
	case EstimatorForkJoin:
		return "fork/join"
	case EstimatorTripathi:
		return "tripathi"
	default:
		return "paper-literal"
	}
}

// ParseEstimator is the inverse of String. The empty string selects the
// fork/join default; "forkjoin" is accepted as a URL-friendly alias.
func ParseEstimator(s string) (Estimator, error) {
	switch s {
	case "", "fork/join", "forkjoin":
		return EstimatorForkJoin, nil
	case "tripathi":
		return EstimatorTripathi, nil
	case "paper-literal":
		return EstimatorPaperLiteral, nil
	}
	return 0, fmt.Errorf("core: unknown estimator %q (want \"fork/join\", \"tripathi\" or \"paper-literal\")", s)
}

// MarshalText serializes the estimator by its stable name (JSON wire
// format, canonical cache keys).
func (e Estimator) MarshalText() ([]byte, error) {
	switch e {
	case EstimatorForkJoin, EstimatorTripathi, EstimatorPaperLiteral:
		return []byte(e.String()), nil
	}
	return nil, fmt.Errorf("core: invalid estimator %d", int(e))
}

// UnmarshalText parses the stable estimator name.
func (e *Estimator) UnmarshalText(b []byte) error {
	est, err := ParseEstimator(string(b))
	if err != nil {
		return err
	}
	*e = est
	return nil
}

// Defaults for Config fields left zero.
const (
	DefaultEpsilon       = 1e-7
	DefaultMaxIterations = 200
	// DefaultTripathiCVFloor floors leaf CVs for the Tripathi estimator,
	// which assumes exponential-family task times.
	DefaultTripathiCVFloor = 0.15
	// DefaultPAttenuation is the per-level CV attenuation of the fork/join P
	// rule: the max of two variables disperses less than its inputs, so each
	// synchronization level carries cv*DefaultPAttenuation upward. 1 would
	// mean no attenuation (error grows linearly with P-depth); values below
	// 1 bound the compounding.
	DefaultPAttenuation = 0.85
	// DefaultLeafCV is used when no history trace supplies per-class CVs; it
	// reflects task-time dispersion of a lightly-jittered Hadoop task.
	DefaultLeafCV = 0.12
	// DefaultDamping is the weight of the previous iterate in the outer
	// class-response update, which stabilizes the outer fixed point:
	// next = DefaultDamping·prev + (1−DefaultDamping)·new.
	DefaultDamping = 0.5
)

// ClassStats carries per-class initialization data.
type ClassStats struct {
	// MeanCPU, MeanDisk and MeanNetwork are service demands at the centers.
	MeanCPU     float64
	MeanDisk    float64
	MeanNetwork float64
	// MeanResponse seeds the iteration (0 = derive from demands).
	MeanResponse float64
	// CV is the leaf coefficient of variation (0 = DefaultLeafCV).
	CV float64
}

// Config drives one prediction.
type Config struct {
	Spec cluster.Spec
	Job  workload.Job
	// NumJobs is the number of statistically identical jobs executing
	// concurrently (N of the closed network). Minimum 1.
	NumJobs int
	// Estimator selects the tree estimator; default fork/join.
	Estimator Estimator
	// Epsilon is the convergence threshold on the job response time
	// (default 1e-7, the paper's recommended value). Zero selects the
	// default; negative values are rejected.
	Epsilon float64
	// MaxIterations bounds the outer loop (default 200).
	MaxIterations int
	// History optionally initializes per-class demands, responses and CVs
	// from a parsed job-history trace (§4.2.1, first approach). When nil, the
	// Herodotou static model provides initialization (second approach).
	History map[timeline.Class]ClassStats
	// Faults optionally applies the analytic effective-demand correction for
	// a fault scenario (internal/fault): per-class demands inflate by the
	// expected rework, lost capacity and straggler factors, and class CVs
	// widen by the straggler mixture's dispersion — calibrated against the
	// fault-injecting simulator (fault_test.go). Nil, and an all-zero plan
	// over a spec without revocation hazards, leave every prediction
	// bit-identical to the fault-free model.
	Faults *fault.Plan
}

func (c *Config) applyDefaults() {
	if c.NumJobs <= 0 {
		c.NumJobs = 1
	}
	if c.Epsilon <= 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = DefaultMaxIterations
	}
}

// validateTuning rejects out-of-range convergence knobs before the zero
// values are replaced by defaults.
func (c *Config) validateTuning() error {
	if c.Epsilon < 0 {
		return fmt.Errorf("core: epsilon %v must be positive", c.Epsilon)
	}
	return nil
}

// Prediction is the model output.
type Prediction struct {
	// ResponseTime is the estimated average job response time (seconds),
	// including ApplicationMaster startup.
	ResponseTime float64
	// Iterations used by the outer loop; Converged reports whether the
	// ε-test passed before MaxIterations.
	Iterations int
	Converged  bool
	// InnerIterations is the total number of MVA fixed-point sweeps across
	// all outer iterations — with Iterations, the observable cost of the
	// prediction (surfaced by the service's /v1/metrics).
	InnerIterations int
	// ReusedRounds counts the outer rounds that rebuilt none of the
	// round's structure: the timeline re-timed round 1's placement with
	// every task in its lane and order (timeline.Builder.Retime), the
	// precedence tree was refreshed in place (ptree.Builder.Refresh) and
	// the demand rows were kept. RebuiltRounds counts the others, round 1
	// among them; the two sum to Iterations. Both rebuilt and reused rounds
	// give the same bits.
	ReusedRounds  int
	RebuiltRounds int
	// Cells is the number of MVA rows the final round solved: one per cell
	// of interchangeable tasks (see cells.go). Every round solves lumped, a
	// chained one too, since it seeds each cell from its first member's
	// row; the count equals the task count only when no two tasks share a
	// cell.
	Cells int
	// MaxEvaluations counts the Tripathi estimator's P-node evaluations and
	// MaxIntegrations the closed-form max-moment solves (dist.MaxMoments
	// calls) they cost, both totaled across all outer iterations; a P node
	// whose operand pair was already solved earlier in the same prediction
	// is answered from a memo. Both are zero for the other estimators.
	MaxEvaluations  int
	MaxIntegrations int
	// ClassResponse is the final per-class mean task response time.
	ClassResponse map[timeline.Class]float64
	// Timeline and Tree are the final iteration's artifacts (inspection,
	// visualization, tests). Only Predict fills them; the answer-only
	// solves (PredictEach, the stages of PredictWorkflowContext) leave both
	// nil.
	Timeline *timeline.Timeline
	Tree     *ptree.Node
}

// classData is the per-class working state of the iteration.
type classData struct {
	demCPU     float64
	demDisk    float64
	demNetwork float64
	response   float64
	cv         float64
}

func (c *classData) demandTotal() float64 { return c.demCPU + c.demDisk + c.demNetwork }

// classTable is the working state of every task class, indexed by
// timeline.Class.
type classTable [numClasses]classData

// Predictor is a reusable, allocation-lean model evaluator: the O(T²) fused
// overlap weights, the MVA solver scratch, the round's timeline and
// precedence tree with their builders, and the per-iteration lookup tables
// live on the Predictor and are recycled across iterations and across
// predictions, so evaluating many configurations — the planner's node-axis
// sweeps, batched figure reproduction — stops churning the garbage
// collector. Once its scratch has grown, an outer round allocates nothing;
// a prediction allocates its setup, its answers' class-response maps and,
// for Predict only, a copy of the final round's timeline and tree for the
// Prediction.
//
// A Predictor is not safe for concurrent use. The package-level Predict,
// PredictEach and PredictWorkflow borrow one from a package pool for the
// length of the call, so parallel callers each solve on their own; a
// Prediction shares no memory with the Predictor that made it, and its bits
// depend only on its Config.
type Predictor struct {
	solver mva.OverlapSolver

	// hw is the hardware-class view of the current prediction's cluster.
	hw hwView

	// weights is the fused overlap weight matrix the MVA step reads
	// (mva.OverlapInput.Weights: numCenters×n×n, center-major), written in
	// place by overlapFactors each round.
	weights []float64

	// Per-task MVA demands, flat-backed with a numCenters stride.
	demands []mva.TaskDemand
	demFlat []float64
	demC    int

	// Algorithm-1 builder, the round's timeline it writes into, and its
	// input: the lane layout and duration scales (tlIn, set once per
	// prediction) and the task durations (maps, reduces, set per round). The
	// precedence-tree builder holds the round's tree.
	tlb        timeline.Builder
	tl         timeline.Timeline
	ptb        ptree.Builder
	tlIn       timeline.Input
	maps       []timeline.MapTask
	reduces    []timeline.ReduceTask
	mapSlotsBy []int
	redSlotsBy []int
	mapScale   []float64
	redScale   []float64

	// Center service multiplicities, rebuilt per prediction.
	servers []float64

	// Per-iteration lookup tables, rewritten instead of reallocated. Lanes
	// have a dense (pool, lane-major) index (laneWindows); the factor loops
	// index laneOf/laneWins instead of hashing per pair. respBy[cls][id] is
	// the round's MVA response of task id of class cls (0 = absent).
	laneOf   []int
	laneWins []laneWindow
	respBy   [numClasses][]float64
	// A4's overlaps of the current representative with each lane
	// (overlapFactors).
	laneOv []float64
	laneAt []int32

	// Cells of the current round (cells.go), a representative's Network
	// and CPU weight rows before they are summed per cell, the
	// representatives' demand and warm rows handed to the solver, and the
	// solver's answer copied back to tasks (flat-backed rows and
	// responses).
	cells    cells
	wNet     []float64
	wCPU     []float64
	cellDem  []mva.TaskDemand
	cellWarm [][]float64
	taskRes  []float64
	taskRows [][]float64
	taskResp []float64

	// identityCells forces the all-singleton partition (the element-wise
	// model), rebuildRounds builds every round's timeline, tree and demand
	// rows from scratch, coldInner starts every round's inner MVA cold
	// without Aitken (the unchained solve), and roundHook, when set, sees
	// every round's timeline and tree before the MVA step; all four are
	// test seams.
	identityCells bool
	rebuildRounds bool
	coldInner     bool
	roundHook     func(tl *timeline.Timeline, tree *ptree.Node, otherJobs int)

	// infl is the fault effective-demand correction of the current
	// prediction (the identity without a fault scenario), classes its
	// per-class working state.
	infl    fault.Inflation
	classes classTable

	// trip is the A6 Tripathi evaluation state of the current prediction.
	trip tripathiEval
}

// hwView is the per-prediction hardware resolution of a cluster spec: the
// class table, the node→class map, per-class container capacities, the
// co-location weights of the inter-job overlap factors and the service
// centers of the queueing network. Heterogeneous clusters get one CPU and
// one Disk center *per hardware class* (each modeling a representative node
// of that class, the way the paper's single CPU&Memory center models one of
// N identical nodes) plus the shared Network center; a flat spec reduces to
// the paper's three centers.
type hwView struct {
	classes []cluster.NodeClass
	nodes   int
	// Per-class container capacities (pMaxMapsPerNode / pMaxReducePerNode of
	// §4.3, undivided by the job count).
	mapsPer, redsPer []int
	// classOf maps a node ID to its class index.
	classOf []int
	// invWMap / invWRed are the inverse co-location weights of the beta
	// matrices: totalPoolSlots / classPoolSlotsPerNode. The paper's uniform
	// 1/NumNodes co-location probability generalizes to class-proportional
	// placement — a node hosting a larger share of the container pool
	// receives proportionally more of the other job's tasks. For a flat spec
	// both reduce exactly to NumNodes.
	invWMap, invWRed []float64
	// avgDisk / avgNet are count-weighted harmonic-mean bandwidths and
	// avgInvSpeed the count-weighted mean inverse compute speed, used to seed
	// the class-aggregate working state. For a single class they are exactly
	// the class values.
	avgDisk, avgNet, avgInvSpeed float64
	// nc is the center count: 2 per class + the shared network.
	nc int
}

func (h *hwView) cpuCenter(cls int) int  { return 2 * cls }
func (h *hwView) diskCenter(cls int) int { return 2*cls + 1 }
func (h *hwView) netCenter() int         { return 2 * len(h.classes) }

// init resolves the spec into the view, reusing slice capacity.
func (h *hwView) init(spec cluster.Spec) {
	h.classes = spec.ClassView()
	h.nodes = spec.TotalNodes()
	k := len(h.classes)
	h.nc = 2*k + 1
	h.mapsPer = resize(h.mapsPer, k)
	h.redsPer = resize(h.redsPer, k)
	h.invWMap = resize(h.invWMap, k)
	h.invWRed = resize(h.invWRed, k)
	h.classOf = resize(h.classOf, h.nodes)

	totalMaps, totalReds := 0, 0
	node := 0
	for i, c := range h.classes {
		h.mapsPer[i] = spec.MaxMapsOf(c)
		h.redsPer[i] = spec.MaxReducesOf(c)
		totalMaps += c.Count * h.mapsPer[i]
		totalReds += c.Count * h.redsPer[i]
		for n := 0; n < c.Count; n++ {
			h.classOf[node] = i
			node++
		}
	}
	for i := range h.classes {
		h.invWMap[i] = float64(totalMaps) / float64(h.mapsPer[i])
		h.invWRed[i] = float64(totalReds) / float64(h.redsPer[i])
	}

	h.avgDisk = spec.MeanDiskMBps()
	h.avgNet = spec.MeanNetworkMBps()
	h.avgInvSpeed = spec.MeanInvSpeed()
}

// servers fills buf with the center multiplicities: cores and disks of a
// node per class, then the network fabric width (bisection grows with the
// total node count, matching the cluster substrate).
func (h *hwView) servers(buf []float64) []float64 {
	buf = buf[:0]
	for _, c := range h.classes {
		buf = append(buf, float64(c.CPUs), float64(c.Disks))
	}
	fabric := float64(h.nodes) / 2
	if fabric < 1 {
		fabric = 1
	}
	return append(buf, fabric)
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewPredictor returns an empty Predictor; buffers grow on first use.
func NewPredictor() *Predictor { return &Predictor{} }

// predictors recycles the Predictors of the package-level entry points, so
// repeated solves stop regrowing the O(T²) overlap scaffolding and the
// Tripathi memo. A Predictor goes back only after its call returns: one
// whose solve panicked is dropped.
var predictors = sync.Pool{New: func() any { return NewPredictor() }}

// Predict runs the model to convergence on a pooled Predictor (see
// Predictor.Predict).
func Predict(cfg Config) (Prediction, error) {
	p := predictors.Get().(*Predictor)
	pred, err := p.Predict(cfg)
	predictors.Put(p)
	return pred, err
}

// Predict runs the model to convergence from the A1 initialization. The
// outer loop is the paper's modified MVA; each round's inner overlap MVA
// starts from the previous round's converged residence (round 1 starts
// cold) and is accelerated with safeguarded Aitken extrapolation (see
// predict). The answer is a function of cfg alone, whatever the Predictor
// solved before; its bits are pinned by digest_test.go.
func (p *Predictor) Predict(cfg Config) (Prediction, error) {
	return p.predictOne(nil, cfg, true)
}

// PredictEach runs one prediction of cfg per estimator in ests
// (cfg.Estimator is ignored) on a pooled Predictor and returns them in the
// order of ests. See Predictor.PredictEach.
func PredictEach(ctx context.Context, cfg Config, ests ...Estimator) ([]Prediction, error) {
	p := predictors.Get().(*Predictor)
	preds, err := p.PredictEach(ctx, cfg, ests...)
	predictors.Put(p)
	return preds, err
}

// PredictEach runs one prediction of cfg per estimator in ests
// (cfg.Estimator is ignored), all from a single outer loop, and returns
// them in the order of ests. Each result is bit-identical to a Predict call
// with that estimator, every counter included: the estimator does not steer
// the iteration. A1–A5 and the damped class-response update never read it;
// the A6 estimate only decides when the ε-test stops the loop. So every
// estimator sees the same trajectory, round for round, and the shared
// rounds are paid once. An estimator whose ε-test passes keeps its answer
// as of that round while the loop runs on for the others; the loop ends
// when all have stopped or MaxIterations is reached. ctx is checked
// between outer iterations, so a canceled request stops paying for
// convergence it no longer wants. An empty list and a
// repeated estimator are errors. The results are answers only: Timeline
// and Tree are nil (use Predict for the artifacts), so a caller that keeps
// them, such as a result cache, keeps no copy of the round structure.
func (p *Predictor) PredictEach(ctx context.Context, cfg Config, ests ...Estimator) ([]Prediction, error) {
	out := make([]Prediction, len(ests))
	if err := p.predict(ctx, cfg, ests, out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// predictOne is predict for the one estimator cfg.Estimator.
func (p *Predictor) predictOne(ctx context.Context, cfg Config, artifacts bool) (Prediction, error) {
	var out [1]Prediction
	if err := p.predict(ctx, cfg, []Estimator{cfg.Estimator}, out[:], artifacts); err != nil {
		return Prediction{}, err
	}
	return out[0], nil
}

// predict runs the model to convergence once for every estimator in ests,
// writing out[i] for ests[i] (see PredictEach: the estimators share one
// trajectory). The inner MVA state is chained across outer iterations:
// each round's MVA step starts from the previous round's residence, with
// inner Aitken acceleration. The first round always starts cold, and the
// outer class-response trajectory is never seeded — the timeline's
// discrete placement gives the outer fixed point multiple self-consistent
// basins. Inner chaining is basin-safe: the overlap fixed point is a smooth
// contraction solved to 1e-10, so the outer trajectory tracks the cold
// restart's up to inner-tolerance noise (the coldInner test seam is that
// restart, the oracle of chain_test.go). A non-nil ctx is checked between
// outer iterations — cancellation costs at most one more round; nil skips
// the check so un-contexted callers pay nothing. With artifacts set, each
// answer carries a copy of the timeline and tree of the round it stopped
// on; only a one-estimator solve sets it, so that copy is made once.
// Without it the answer leaves Timeline and Tree nil.
func (p *Predictor) predict(ctx context.Context, cfg Config, ests []Estimator, out []Prediction, artifacts bool) error {
	if len(ests) == 0 {
		return errors.New("core: no estimator to predict with")
	}
	for i, e := range ests {
		for _, f := range ests[:i] {
			if e == f {
				return fmt.Errorf("core: estimator %s listed twice", e)
			}
		}
	}
	cfg, classes, err := p.beginPredict(cfg)
	if err != nil {
		return err
	}

	var (
		tl   = &p.tl
		tree *ptree.Node
		warm [][]float64 // inner seed for the next MVA step
		// inner totals the MVA sweeps so far, reused the rounds that
		// rebuilt no structure.
		inner, reused int
		// kept is the timeline finish copies into an estimator's answer,
		// nil in an answer-only solve.
		kept *timeline.Timeline
	)
	if artifacts {
		kept = tl
	}
	// Until an estimator stops, its entry's ResponseTime is the previous
	// round's total (the ε-test's reference), +Inf before the first round.
	for i := range out {
		out[i] = Prediction{ResponseTime: math.Inf(1)}
	}
	running := len(ests)

	for iter := 1; iter <= cfg.MaxIterations && running > 0; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// A2: timeline from current class response times; A3: its
		// precedence tree. Round 1 builds both. A later round re-times the
		// recorded placement and refreshes the tree in place, paying only
		// for the arithmetic when the structure repeats; either way the
		// bits are a fresh build's.
		tlIn := p.timelineInput(cfg, classes)
		full := iter == 1 || p.rebuildRounds
		repeated, treeKept := false, false
		if full {
			err = p.tlb.BuildInto(tlIn, tl)
		} else {
			repeated, err = p.tlb.Retime(tlIn, tl)
		}
		if err != nil {
			return err
		}
		if full {
			tree, err = p.ptb.Build(tl)
		} else {
			tree, treeKept, err = p.ptb.Refresh(tl)
		}
		if err != nil {
			return err
		}
		// A task's demand row depends only on its class, ID and node, which
		// a repeated placement keeps at every position.
		n := len(tl.Tasks)
		if !repeated {
			p.demandsFor(&cfg, tl, classes)
		}
		taskDemands := p.demands[:n]
		if repeated && treeKept {
			reused++
		}
		// A4: cells of interchangeable tasks (cells.go), then the overlap
		// factors fused into the MVA step's weights, one row per cell.
		laneOf, wins := p.laneWindows(tl)
		if p.identityCells {
			p.cells.identity(n)
		} else {
			p.cells.find(tl, &p.hw, laneOf, wins, taskDemands)
		}
		p.weights = p.overlapFactors(tl, cfg.NumJobs-1, &p.cells, p.weights)
		p.servers = p.hw.servers(p.servers)
		cellDem, cellWarm := p.cellRows(taskDemands, warm)
		in := mva.OverlapInput{
			Tasks:      cellDem,
			Weights:    p.weights,
			Servers:    p.servers,
			Warm:       cellWarm,
			Accelerate: !p.coldInner,
		}
		if p.roundHook != nil {
			p.roundHook(tl, tree, cfg.NumJobs-1)
		}
		// A5: overlap-weighted MVA step on the cells, copied back to tasks.
		cellStep, err := p.solver.Step(in)
		if err != nil {
			return err
		}
		step := p.expand(cellStep, p.hw.nc)
		inner += cellStep.Iterations
		if !p.coldInner {
			// Chain the inner fixed point: the next outer iteration's MVA
			// step starts from this one's converged residence (the demands
			// and overlaps move only as far as the damped class responses
			// do, so the old solution is a near-answer).
			warm = step.Residence
		}
		// Aggregate per class with damping.
		var newResp [numClasses]float64
		classMeans(tl, step.Response, &newResp)
		for cls := range classes {
			nr := newResp[cls]
			if nr <= 0 {
				continue
			}
			cd := &classes[cls]
			cd.response = DefaultDamping*cd.response + (1-DefaultDamping)*nr
		}
		// A6: job response from the tree + convergence test, per estimator
		// still iterating.
		p.indexResponses(tl, step.Response)
		for i, est := range ests {
			pred := &out[i]
			if pred.Converged {
				continue
			}
			total, err := p.estimate(est, tree, classes)
			if err != nil {
				return err
			}
			total += cfg.Job.Profile.AMStartup
			if math.IsInf(total, 0) || math.IsNaN(total) {
				// An extreme history CV can push an estimator past the
				// float64 range; report it rather than serve the number.
				return fmt.Errorf("core: %v estimate is not finite (%v)", est, total)
			}
			stop := math.Abs(total-pred.ResponseTime) <= cfg.Epsilon
			pred.ResponseTime = total
			pred.Iterations = iter
			pred.InnerIterations = inner
			pred.ReusedRounds, pred.RebuiltRounds = reused, iter-reused
			pred.Cells = p.cells.count()
			if est == EstimatorTripathi {
				pred.MaxEvaluations, pred.MaxIntegrations = p.trip.evals, p.trip.integrations
			}
			if stop {
				pred.Converged = true
				finish(pred, classes, kept, &p.ptb)
				running--
			}
		}
	}
	for i := range out {
		if !out[i].Converged {
			finish(&out[i], classes, kept, &p.ptb)
		}
	}
	return nil
}

// finish records the iteration state an estimator stops with: the class
// responses (copied — the loop may run on for other estimators) and, when
// tl is non-nil, a copy of the round's timeline tl and of the tree tb
// holds, which the next round overwrites.
func finish(pred *Prediction, classes *classTable, tl *timeline.Timeline, tb *ptree.Builder) {
	pred.ClassResponse = map[timeline.Class]float64{}
	for cls, cd := range classes {
		pred.ClassResponse[timeline.Class(cls)] = cd.response
	}
	if tl != nil {
		cp := *tl
		cp.Tasks = slices.Clone(tl.Tasks)
		pred.Timeline, pred.Tree = &cp, tb.Snapshot()
	}
}

// beginPredict validates and normalizes a configuration and initializes the
// per-run hardware view, fault inflation and class working state — the
// prologue of the outer loop. The returned Config has defaults applied.
func (p *Predictor) beginPredict(cfg Config) (Config, *classTable, error) {
	if err := cfg.validateTuning(); err != nil {
		return cfg, nil, err
	}
	cfg.applyDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return cfg, nil, err
	}
	if err := cfg.Job.Validate(); err != nil {
		return cfg, nil, err
	}
	if cfg.Job.NumMaps() == 0 {
		return cfg, nil, errors.New("core: job has no map tasks")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return cfg, nil, err
	}
	p.hw.init(cfg.Spec)
	p.infl = faultFactors(cfg, &p.hw)
	p.trip.reset()
	p.classes = initialize(cfg, &p.hw, p.infl)
	p.laneLayout(cfg, &p.classes)
	return cfg, &p.classes, nil
}

// schedulingLatency is the per-container YARN control-loop cost the model
// charges on top of the workload demand: one AM->RM ask heartbeat plus one
// allocation-delivery heartbeat (0.25 s each in the substrate cluster).
const schedulingLatency = 0.5

// initialize implements A1: class demands from the workload's cost functions
// (or history), and initial responses from the Herodotou-style static view
// (all resources to maps, then to reduces ⇒ response = uncontended demand).
// Heterogeneous clusters seed the class aggregates with the count-weighted
// average hardware; the MVA step then re-prices each placed task against its
// node's actual class (demandsFor). A fault scenario scales each class's
// demand vector by its effective-demand factor and widens the class CVs by
// the straggler mixture's dispersion; the identity correction changes no
// bits.
func initialize(cfg Config, h *hwView, infl fault.Inflation) classTable {
	md := cfg.Job.MapDemands(cfg.Job.BlockSizeMB, h.avgDisk)
	ss := cfg.Job.ShuffleSortDemands(h.avgNet, h.avgDisk)
	mg := cfg.Job.MergeDemands(h.avgDisk)
	classes := classTable{
		timeline.ClassMap:         {demCPU: md.CPU*h.avgInvSpeed + schedulingLatency, demDisk: md.Disk, demNetwork: md.Network},
		timeline.ClassShuffleSort: {demCPU: ss.CPU*h.avgInvSpeed + schedulingLatency, demDisk: ss.Disk, demNetwork: ss.Network},
		timeline.ClassMerge:       {demCPU: mg.CPU * h.avgInvSpeed, demDisk: mg.Disk, demNetwork: mg.Network},
	}
	for i := range classes {
		cls, cd := timeline.Class(i), &classes[i]
		if h, ok := cfg.History[cls]; ok {
			if h.MeanCPU > 0 {
				cd.demCPU = h.MeanCPU
				cd.demDisk = h.MeanDisk
				cd.demNetwork = h.MeanNetwork
			}
			if h.MeanResponse > 0 {
				cd.response = h.MeanResponse
			}
			if h.CV > 0 {
				cd.cv = h.CV
			}
		}
		f := classFactor(infl, cls)
		cd.demCPU *= f
		cd.demDisk *= f
		cd.demNetwork *= f
		if cd.response <= 0 {
			cd.response = cd.demandTotal()
		}
		if cd.cv <= 0 {
			cd.cv = leafCVFor(cfg, cls)
		}
		if infl.FactorCV > 0 {
			// Variance of a product of independent factors:
			// 1+cv'² = (1+cv²)(1+cv_f²).
			cd.cv = math.Sqrt((1+cd.cv*cd.cv)*(1+infl.FactorCV*infl.FactorCV) - 1)
		}
	}
	return classes
}

// classFactor maps a task class to its effective-demand inflation factor.
func classFactor(infl fault.Inflation, cls timeline.Class) float64 {
	switch cls {
	case timeline.ClassShuffleSort:
		return infl.ShuffleSort
	case timeline.ClassMerge:
		return infl.Merge
	default:
		return infl.Map
	}
}

// faultFactors sizes the per-class fault exposure from the uncorrected
// static demands and returns the plan's effective-demand inflation (the
// identity when no fault scenario is active, so the fault-free model stays
// bit-exact).
func faultFactors(cfg Config, h *hwView) fault.Inflation {
	if !fault.Active(cfg.Faults, cfg.Spec) {
		return fault.None()
	}
	md := cfg.Job.MapDemands(cfg.Job.BlockSizeMB, h.avgDisk)
	ss := cfg.Job.ShuffleSortDemands(h.avgNet, h.avgDisk)
	mg := cfg.Job.MergeDemands(h.avgDisk)
	expMap := md.CPU*h.avgInvSpeed + schedulingLatency + md.Disk + md.Network
	expRed := ss.CPU*h.avgInvSpeed + schedulingLatency + ss.Disk + ss.Network +
		mg.CPU*h.avgInvSpeed + mg.Disk + mg.Network
	slots := 0
	for i, c := range h.classes {
		slots += c.Count * h.mapsPer[i]
	}
	waves := 1.0
	if slots > 0 {
		waves = math.Ceil(float64(cfg.Job.NumMaps()) / float64(slots))
	}
	return fault.Inflate(cfg.Faults, cfg.Spec, fault.Exposure{
		Map:     expMap,
		Reduce:  expRed,
		Horizon: waves*expMap + expRed,
	})
}

func leafCVFor(cfg Config, cls timeline.Class) float64 {
	cv := cfg.Job.Profile.TaskJitterCV
	if cv <= 0 {
		return DefaultLeafCV
	}
	// Shuffle-sort aggregates many fetches with independent jitter plus
	// pipeline variability; keep the class CV at the jitter level. Maps and
	// merges are single work units.
	return cv
}

// laneLayout sets the part of Algorithm 1's input that holds for a whole
// prediction: the lanes of every node and the per-node duration scales.
// With N identical concurrent jobs the root queue's fair ordering gives
// each job ~1/N of the container capacity; the per-job timeline is built
// over that share (at least one lane per node). Each node's lane count
// comes from its hardware class — bigger nodes host more lanes.
func (p *Predictor) laneLayout(cfg Config, classes *classTable) {
	hw := &p.hw
	p.mapSlotsBy = resize(p.mapSlotsBy, hw.nodes)
	p.redSlotsBy = resize(p.redSlotsBy, hw.nodes)
	for n := 0; n < hw.nodes; n++ {
		cls := hw.classOf[n]
		ms := hw.mapsPer[cls] / cfg.NumJobs
		if ms < 1 {
			ms = 1
		}
		rs := hw.redsPer[cls] / cfg.NumJobs
		if rs < 1 {
			rs = 1
		}
		p.mapSlotsBy[n] = ms
		p.redSlotsBy[n] = rs
	}
	p.tlIn = timeline.Input{
		NumNodes:          hw.nodes,
		MapSlotsByNode:    p.mapSlotsBy,
		ReduceSlotsByNode: p.redSlotsBy,
		SlowStart:         cfg.Job.SlowStart,
	}
	p.tlIn.MapDurationScaleByNode, p.tlIn.ReduceDurationScaleByNode = p.durationScales(cfg, classes)
}

// timelineInput converts class responses into Algorithm 1 inputs over the
// prediction's lane layout. The shuffle-sort response is split into a
// node-local base and a network share that Algorithm 1 redistributes per
// remote map (sd/|R|). The task slices are predictor-owned scratch.
func (p *Predictor) timelineInput(cfg Config, classes *classTable) timeline.Input {
	m := cfg.Job.NumMaps()
	r := cfg.Job.NumReduces
	mapResp := classes[timeline.ClassMap].response
	ssResp := classes[timeline.ClassShuffleSort].response
	mgResp := classes[timeline.ClassMerge].response

	ssd := &classes[timeline.ClassShuffleSort]
	netFrac := 0.0
	if tot := ssd.demandTotal(); tot > 0 {
		netFrac = ssd.demNetwork / tot
	}
	ssBase := ssResp * (1 - netFrac)
	// Each map's shuffle contribution: if every map were remote the shares
	// would reassemble the full network part of the shuffle-sort response.
	sd := 0.0
	if m > 0 {
		sd = ssResp * netFrac * float64(r) / float64(m)
	}

	p.maps = p.maps[:0]
	p.reduces = p.reduces[:0]
	for i := 0; i < m; i++ {
		p.maps = append(p.maps, timeline.MapTask{ID: i, Duration: mapResp, ShuffleDuration: sd})
	}
	for i := 0; i < r; i++ {
		p.reduces = append(p.reduces, timeline.ReduceTask{
			ID: i, ShuffleSortBase: ssBase, MergeDuration: mgResp,
		})
	}
	in := p.tlIn
	in.Maps, in.Reduces = p.maps, p.reduces
	return in
}

// durationScales derives Algorithm 1's per-node duration-scale vectors for
// heterogeneous clusters: the class-aggregate durations the timeline places
// are stretched (or shrunk) on each node by the ratio of that node's class
// demand to the cluster-average demand, so faster nodes free containers
// earlier and absorb more tasks — the placement feedback the simulator's
// YARN scheduler exhibits. The reduce scale covers the node-local shuffle
// base and the merge; remote-shuffle shares ride the shared network
// unscaled.
//
// History-backed demands apply uniformly (a trace already embodies the
// hardware mix it was measured on), so history-covered phases carry scale
// 1; the gate is per phase group, so a partial profile (e.g. a map-only
// trace) keeps scaling the statically-initialized phases. Homogeneous
// clusters — and full histories — return nil vectors (the exact pre-class
// path).
func (p *Predictor) durationScales(cfg Config, classes *classTable) (mapScales, redScales []float64) {
	hw := &p.hw
	_, mapHist := cfg.History[timeline.ClassMap]
	_, ssHist := cfg.History[timeline.ClassShuffleSort]
	_, mgHist := cfg.History[timeline.ClassMerge]
	// The single reduce scale spans shuffle-sort and merge together; it only
	// applies when neither leg is pinned by measured history.
	scaleMaps := !mapHist
	scaleReds := !ssHist && !mgHist
	if (!scaleMaps && !scaleReds) || len(hw.classes) <= 1 {
		return nil, nil
	}
	mapCD := &classes[timeline.ClassMap]
	ssCD := &classes[timeline.ClassShuffleSort]
	mgCD := &classes[timeline.ClassMerge]
	mapAvg := mapCD.demandTotal()
	redAvg := ssCD.demCPU + ssCD.demDisk + mgCD.demCPU + mgCD.demDisk // node-local parts
	p.mapScale = resize(p.mapScale, hw.nodes)
	p.redScale = resize(p.redScale, hw.nodes)
	lastCls := -1
	sm, sr := 1.0, 1.0
	for n := 0; n < hw.nodes; n++ {
		if cls := hw.classOf[n]; cls != lastCls {
			lastCls = cls
			c := hw.classes[cls]
			sp := c.SpeedFactor()
			if scaleMaps {
				md := cfg.Job.MapDemands(cfg.Job.BlockSizeMB, c.DiskMBps)
				// The class averages carry the fault inflation; scaling the
				// fresh per-class demand by the same factor keeps the ratio
				// purely hardware (×1.0 is bit-exact on the fault-free path).
				sm = (md.CPU/sp + schedulingLatency + md.Disk + md.Network) * p.infl.Map / mapAvg
			}
			if scaleReds {
				ss := cfg.Job.ShuffleSortDemands(c.NetworkMBps, c.DiskMBps)
				mg := cfg.Job.MergeDemands(c.DiskMBps)
				num := ss.CPU/sp + schedulingLatency + ss.Disk + mg.CPU/sp + mg.Disk
				if p.infl.ShuffleSort != 1 || p.infl.Merge != 1 {
					num = (ss.CPU/sp+schedulingLatency+ss.Disk)*p.infl.ShuffleSort +
						(mg.CPU/sp+mg.Disk)*p.infl.Merge
				}
				sr = num / redAvg
			}
		}
		p.mapScale[n] = sm
		p.redScale[n] = sr
	}
	return p.mapScale, p.redScale
}

// Centers of the queueing network. The paper groups CPU and disk into one
// "CPU&Memory" center but lists cpuPerNode and diskPerNode separately in
// Table 2; we keep CPU and Disk as distinct node-local multi-server centers
// plus the shared Network center. Heterogeneous clusters carry one CPU/Disk
// center pair per hardware class (hwView.cpuCenter/diskCenter/netCenter); a
// flat spec has exactly the paper's three centers in this order.
const (
	centerCPU     = 0
	centerDisk    = 1
	centerNetwork = 2
)

// numClasses is the paper's C = 3 (map, shuffle-sort, merge); the timeline
// class constants index arrays of this size.
const numClasses = 3

// overlapFactors computes the intra-job (α) and inter-job (β) overlap
// factors per center and writes them fused and lumped into the MVA step's
// weights (mva.OverlapInput.Weights), reusing out's capacity. The fused
// weight of tasks i and j is W[c][i][j] = α^c_ij + (N−1)·β^c_ij off the
// diagonal and (N−1)·β^c_ii on it, with N−1 = otherJobs; cell g's row holds
// L[c][g][h] = Σ_{j∈h} W[c][i_g][j] for its first member i_g, summed in
// ascending j, so the identity partition writes W itself. Task i has demand
// only at its own class's CPU and Disk centers and the Network center, so
// only those three rows of a cell are written; the solver never reads the
// rest. laneWindows must have run on tl.
//
// α^k_ij is the fraction of task i's execution that overlaps task j's, masked
// by center visibility: the CPU&Memory center is per-node, so only
// co-located pairs contend; the Network center is shared by all.
//
// β^k_ij uses the aligned-identical-timelines approximation: the paper's
// multi-job experiments submit N statistically identical jobs together, so
// another job's copy of task j is active exactly when task j is (its
// timeline is a replica of this job's). β is therefore the same time-overlap
// as α — including j = i, whose twin in the other job fully overlaps — with
// class-proportional node co-location weights for the per-node centers: the
// other job's tasks spread over nodes in proportion to their share of the
// container pool, which for a flat spec reduces to the paper's uniform
// 1/numNodes.
func (p *Predictor) overlapFactors(tl *timeline.Timeline, otherJobs int, cl *cells, out []float64) []float64 {
	hw := &p.hw
	n := len(tl.Tasks)
	g := cl.count()
	out = resize(out, hw.nc*g*g)
	row := func(c, k int) []float64 { return out[(c*g+k)*g : (c*g+k+1)*g] }
	n1 := float64(otherJobs)
	laneOf, wins, of := p.laneOf, p.laneWins, cl.of
	netC := hw.netCenter()
	// A representative's element-wise rows are built whole, then summed
	// per cell. Under the identity partition the sums are the rows
	// themselves, so they are built in place. The Disk row always equals
	// the CPU row.
	p.wNet, p.wCPU = resize(p.wNet, n), resize(p.wCPU, n)
	// laneOv[l] is Overlap(rep, lane l's envelope)/d_rep, computed at the
	// first task of lane l the representative meets and marked there with
	// the representative's number + 1 in laneAt.
	p.laneOv, p.laneAt = resize(p.laneOv, len(wins)), resize(p.laneAt, len(wins))
	clear(p.laneAt)
	for k, rep := range cl.rep {
		i := int(rep)
		ti := tl.Tasks[i]
		ci := hw.classOf[ti.Node]
		lNet, lCPU, lDisk := row(netC, k), row(hw.cpuCenter(ci), k), row(hw.diskCenter(ci), k)
		wNet, wCPU := p.wNet, p.wCPU
		if g == n {
			wNet, wCPU = lNet, lCPU
		}
		di := ti.Duration()
		li := laneOf[i]
		// The twin of task j draws its node from j's container pool; node(i)
		// hosts a pool share of slots(class(i))/totalSlots.
		invWMap, invWRed := hw.invWMap[ci], hw.invWRed[ci]
		// The twin of task i in another job overlaps fully (β_ii); task i
		// never queues behind itself (no α_ii).
		selfW := invWMap
		if ti.Class != timeline.ClassMap {
			selfW = invWRed
		}
		wNet[i] = n1 * 1
		wCPU[i] = n1 * (1 / selfW)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tj := &tl.Tasks[j]
			ov := 0.0
			if di > 0 {
				lo, hi := ti.Start, ti.End
				if tj.Start > lo {
					lo = tj.Start
				}
				if tj.End < hi {
					hi = tj.End
				}
				if hi > lo {
					ov = (hi - lo) / di
				}
			}
			// Network: global center, pairwise transfer overlap — the same
			// α and β time-overlap (see the doc comment above).
			wNet[j] = ov + n1*ov
			invW := invWMap
			if tj.Class != timeline.ClassMap {
				invW = invWRed
			}
			// CPU and Disk: per-node centers (task i contends at its own
			// class's center pair). Contention is assessed against the *lane*
			// hosting task j rather than j's exact interval: on the real
			// cluster a freed container is backfilled immediately, so a lane
			// stays busy wall-to-wall while work remains. Each lane counts
			// once, with its contention spread over its tasks in proportion
			// to their durations; same-lane tasks serialize and never
			// contend, and tasks on other nodes have no α at all.
			lov := 0.0
			if ti.Node == tj.Node {
				if lj := laneOf[j]; lj != li {
					lov = ov
					if w := &wins[lj]; w.total > 0 && di > 0 {
						if p.laneAt[lj] != int32(k+1) {
							p.laneOv[lj], p.laneAt[lj] = timeline.Overlap(ti, w.placed)/di, int32(k+1)
						}
						lov = p.laneOv[lj] * (tj.Duration() / w.total)
					}
				}
			}
			wCPU[j] = lov + n1*(ov/invW)
		}
		if g != n {
			clear(lNet)
			clear(lCPU)
			for j, h := range of {
				lNet[h] += wNet[j]
				lCPU[h] += wCPU[j]
			}
		}
		copy(lDisk, lCPU)
	}
	return out
}

// cellRows returns the first members' demand rows and warm seed rows, one
// per cell. First members ascend, so the seed rows stop where warm does. A
// seed taken this way is constant on the cells even when they changed
// since the round it came from, so a chained round always solves lumped.
func (p *Predictor) cellRows(dem []mva.TaskDemand, warm [][]float64) ([]mva.TaskDemand, [][]float64) {
	p.cellDem, p.cellWarm = p.cellDem[:0], p.cellWarm[:0]
	for _, i := range p.cells.rep {
		p.cellDem = append(p.cellDem, dem[i])
		if int(i) < len(warm) {
			p.cellWarm = append(p.cellWarm, warm[i])
		}
	}
	return p.cellDem, p.cellWarm
}

// expand copies a cell-level MVA result back to the round's tasks: every
// member gets its cell's residence row and response. The result is
// Predictor scratch, valid until the next round's expand.
func (p *Predictor) expand(step mva.OverlapResult, nc int) mva.OverlapResult {
	n := len(p.cells.of)
	p.taskRes = resize(p.taskRes, n*nc)
	p.taskResp = resize(p.taskResp, n)
	if cap(p.taskRows) < n {
		p.taskRows = make([][]float64, n)
	}
	p.taskRows = p.taskRows[:n]
	for i, g := range p.cells.of {
		row := p.taskRes[i*nc : (i+1)*nc : (i+1)*nc]
		copy(row, step.Residence[g])
		p.taskRows[i] = row
		p.taskResp[i] = step.Response[g]
	}
	return mva.OverlapResult{Residence: p.taskRows, Response: p.taskResp, Iterations: step.Iterations}
}

// laneWindow is the busy envelope of one container lane: reduce subtasks
// (shuffle-sort and merge) share their reducer's lane; maps have their own
// lane pool.
type laneWindow struct {
	placed timeline.Placed // envelope interval, reused for Overlap
	total  float64         // sum of task durations in the lane
	used   bool            // some task of this round runs in the lane
}

// laneWindows resolves each task's container lane to a dense index — the
// map lanes by their lane-major ID (timeline.Placed.Lane), then the reduce
// lanes after the highest map lane — and builds the per-lane busy
// envelopes. The table spans only the lanes up to the highest one a task
// runs in, which the builder hands out in lane-major order, so its size
// follows the task count rather than the cluster's lane count.
func (p *Predictor) laneWindows(tl *timeline.Timeline) (laneOf []int, wins []laneWindow) {
	mapLanes, redLanes := 0, 0
	for _, t := range tl.Tasks {
		if t.Class == timeline.ClassMap {
			mapLanes = max(mapLanes, t.Lane+1)
		} else {
			redLanes = max(redLanes, t.Lane+1)
		}
	}
	lanes := mapLanes + redLanes
	if cap(p.laneWins) < lanes {
		p.laneWins = make([]laneWindow, lanes)
	}
	p.laneWins = p.laneWins[:lanes]
	p.laneOf = resize(p.laneOf, len(tl.Tasks))
	for i, t := range tl.Tasks {
		l := t.Lane
		if t.Class != timeline.ClassMap {
			l += mapLanes
		}
		p.laneOf[i] = l
		p.laneWins[l].used = false
	}
	for i, t := range tl.Tasks {
		w := &p.laneWins[p.laneOf[i]]
		if !w.used {
			*w = laneWindow{placed: t, used: true}
		} else {
			if t.Start < w.placed.Start {
				w.placed.Start = t.Start
			}
			if t.End > w.placed.End {
				w.placed.End = t.End
			}
		}
		w.total += t.Duration()
	}
	return p.laneOf, p.laneWins
}

// taskDemandOn prices one placed task against its node's hardware class:
// I/O demands use the class bandwidths and the CPU demand divides by the
// class compute speed. Map demands use the task's actual split size (the
// final split may be short). History-backed demands apply uniformly — a
// trace already embodies the hardware mix it was measured on — gated per
// class so a partial profile keeps class-pricing the phases it does not
// cover. infl scales the result by the class's fault effective-demand
// factor (history demands were already scaled in initialize).
func taskDemandOn(cfg *Config, h *hwView, t *timeline.Placed, classes *classTable, infl fault.Inflation) (cpu, disk, net float64) {
	if _, ok := cfg.History[t.Class]; ok {
		cd := &classes[t.Class]
		return cd.demCPU, cd.demDisk, cd.demNetwork
	}
	c := h.classes[h.classOf[t.Node]]
	sp := c.SpeedFactor()
	f := classFactor(infl, t.Class)
	switch t.Class {
	case timeline.ClassMap:
		d := cfg.Job.MapDemands(cfg.Job.SplitMB(t.ID), c.DiskMBps)
		return (d.CPU/sp + schedulingLatency) * f, d.Disk * f, d.Network * f
	case timeline.ClassShuffleSort:
		d := cfg.Job.ShuffleSortDemands(c.NetworkMBps, c.DiskMBps)
		return (d.CPU/sp + schedulingLatency) * f, d.Disk * f, d.Network * f
	default:
		d := cfg.Job.MergeDemands(c.DiskMBps)
		return d.CPU / sp * f, d.Disk * f, d.Network * f
	}
}

// demandsFor maps placed tasks to center demands in p.demands: each task's
// demand vector is zero except at its own class's CPU/Disk centers and the
// shared Network center.
func (p *Predictor) demandsFor(cfg *Config, tl *timeline.Timeline, classes *classTable) {
	hw := &p.hw
	n := len(tl.Tasks)
	nc := hw.nc
	if cap(p.demands) < n || cap(p.demFlat) < n*nc || p.demC != nc {
		if cap(p.demands) < n {
			p.demands = make([]mva.TaskDemand, n)
		}
		p.demands = p.demands[:cap(p.demands)]
		if cap(p.demFlat) < len(p.demands)*nc {
			p.demFlat = make([]float64, len(p.demands)*nc)
		}
		p.demC = nc
		for i := range p.demands {
			p.demands[i].Demands = p.demFlat[i*nc : (i+1)*nc : (i+1)*nc]
		}
	}
	out := p.demands[:n]
	netC := hw.netCenter()
	for i := range tl.Tasks {
		t := &tl.Tasks[i]
		cpu, disk, net := taskDemandOn(cfg, hw, t, classes, p.infl)
		d := out[i].Demands
		clear(d)
		ci := hw.classOf[t.Node]
		d[hw.cpuCenter(ci)] = cpu
		d[hw.diskCenter(ci)] = disk
		d[netC] = net
	}
}

// classMeans averages per-task responses back into class responses,
// written into out (indexed by timeline.Class; zero = class absent).
func classMeans(tl *timeline.Timeline, resp []float64, out *[numClasses]float64) {
	var sum [numClasses]float64
	var cnt [numClasses]int
	for i, t := range tl.Tasks {
		sum[t.Class] += resp[i]
		cnt[t.Class]++
	}
	for cls := range out {
		out[cls] = 0
		if cnt[cls] > 0 {
			out[cls] = sum[cls] / float64(cnt[cls])
		}
	}
}

// indexResponses indexes the placed tasks' MVA responses by class and task
// ID for the round's estimates. Task IDs are unique and non-negative within
// a class (timeline.Input.Validate).
func (p *Predictor) indexResponses(tl *timeline.Timeline, taskResp []float64) {
	var size [numClasses]int
	for _, t := range tl.Tasks {
		size[t.Class] = max(size[t.Class], t.ID+1)
	}
	for cls := range p.respBy {
		p.respBy[cls] = resize(p.respBy[cls], size[cls])
		clear(p.respBy[cls])
	}
	for i, t := range tl.Tasks {
		p.respBy[t.Class][t.ID] = taskResp[i]
	}
}

// estimate computes the job response time from the precedence tree using
// estimator est; leaf response times come from the MVA step (per task, as
// indexed by indexResponses), leaf CVs from the class data.
func (p *Predictor) estimate(est Estimator, tree *ptree.Node, classes *classTable) (float64, error) {
	respBy := &p.respBy
	leaf := func(t *timeline.Placed) (mean, cv float64, err error) {
		var m float64
		if ids := respBy[t.Class]; t.ID < len(ids) {
			m = ids[t.ID]
		}
		if m <= 0 {
			return 0, 0, fmt.Errorf("core: no response for %s task %d", t.Class, t.ID)
		}
		// Pipeline-clamped tasks (a shuffle cannot end before the last map)
		// occupy their placed window even when their active work is shorter;
		// the leaf takes the larger of the two (the "alternative strategy to
		// estimate the average response time of subsets of tasks" of [12]).
		if d := t.Duration(); d > m {
			m = d
		}
		return m, classes[t.Class].cv, nil
	}

	switch est {
	case EstimatorTripathi:
		d, err := p.trip.eval(tree, leaf, DefaultTripathiCVFloor)
		if err != nil {
			return 0, err
		}
		return d.Mean(), nil
	case EstimatorPaperLiteral:
		m, _, err := evalForkJoin(tree, leaf, true, 1)
		return m, err
	default:
		m, _, err := evalForkJoin(tree, leaf, false, DefaultPAttenuation)
		return m, err
	}
}

// evalForkJoin recursively evaluates the tree with the fork/join rule. With
// literal=true the P rule is the paper's verbatim 3/2·max; otherwise the
// CV-attenuated variant (see EstimatorForkJoin).
func evalForkJoin(n *ptree.Node, leaf func(*timeline.Placed) (float64, float64, error), literal bool, atten float64) (mean, cv float64, err error) {
	switch n.Op {
	case ptree.Leaf:
		return leaf(n.Task)
	case ptree.S:
		ml, cvl, err := evalForkJoin(n.Left, leaf, literal, atten)
		if err != nil {
			return 0, 0, err
		}
		mr, cvr, err := evalForkJoin(n.Right, leaf, literal, atten)
		if err != nil {
			return 0, 0, err
		}
		m := ml + mr
		v := cvl*ml*cvl*ml + cvr*mr*cvr*mr
		return m, math.Sqrt(v) / m, nil
	case ptree.P:
		ml, cvl, err := evalForkJoin(n.Left, leaf, literal, atten)
		if err != nil {
			return 0, 0, err
		}
		mr, cvr, err := evalForkJoin(n.Right, leaf, literal, atten)
		if err != nil {
			return 0, 0, err
		}
		mx := math.Max(ml, mr)
		cvEff := (cvl + cvr) / 2
		var m float64
		if literal {
			m = 1.5 * mx
		} else {
			m = mx * (1 + 0.5*cvEff)
		}
		// Each synchronization level contributes its own delay margin, so the
		// estimate (and its error) grows with the depth of the balanced
		// P-subtree — the paper's "error grows with the number of map tasks".
		// The carried CV is attenuated per level (a max disperses less than
		// its inputs), bounding the compounding for very deep trees.
		return m, cvEff * atten, nil
	}
	return 0, 0, errors.New("core: unknown tree operator")
}

// tripathiEval evaluates the precedence tree for the Tripathi estimator.
// Its memo maps a P node's fitted operand pair to the moments of their
// max, so each distinct max is solved once per prediction, across all
// outer rounds: dist.MaxMoments is a pure function of its operands and
// symmetric in them to the last bit, so the memo is exact and its key
// unordered. A hit refits the stored moments, which gives the bits of the
// first fit. The memo lives for one prediction (reset by beginPredict) —
// pooled Predictors never answer from another configuration's maxima.
type tripathiEval struct {
	memo map[maxOperands]moments
	// evals and integrations total P-node evaluations and actual
	// dist.MaxMoments calls since the last reset.
	evals, integrations int
}

// maxOperands is a memo key: a P node's fitted operands.
type maxOperands struct{ a, b dist.Law }

// moments are a fitted max's mean and coefficient of variation.
type moments struct{ mean, cv float64 }

func (t *tripathiEval) reset() {
	clear(t.memo)
	t.evals, t.integrations = 0, 0
}

// eval evaluates the tree with distribution fitting: children are fitted as
// Erlang/Hyperexponential by (mean, CV); S composes sums, P composes maxima
// (closed-form moments).
func (t *tripathiEval) eval(n *ptree.Node, leaf func(*timeline.Placed) (float64, float64, error), cvFloor float64) (dist.Law, error) {
	switch n.Op {
	case ptree.Leaf:
		m, cv, err := leaf(n.Task)
		if err != nil {
			return dist.Law{}, err
		}
		if cv < cvFloor {
			cv = cvFloor
		}
		return dist.Fit(m, cv)
	case ptree.S, ptree.P:
		dl, err := t.eval(n.Left, leaf, cvFloor)
		if err != nil {
			return dist.Law{}, err
		}
		dr, err := t.eval(n.Right, leaf, cvFloor)
		if err != nil {
			return dist.Law{}, err
		}
		if n.Op == ptree.S {
			m, cv, err := dist.SumMoments(dl, dr)
			if err != nil {
				return dist.Law{}, err
			}
			return dist.Fit(m, cv)
		}
		return t.max(dl, dr)
	}
	return dist.Law{}, errors.New("core: unknown tree operator")
}

// max is a P node: the fitted maximum of two fitted operands, memoized.
func (t *tripathiEval) max(dl, dr dist.Law) (dist.Law, error) {
	t.evals++
	mc, ok := t.memo[maxOperands{dl, dr}]
	if !ok {
		mc, ok = t.memo[maxOperands{dr, dl}]
	}
	if !ok {
		t.integrations++
		m, cv, err := dist.MaxMoments(dl, dr)
		if err != nil {
			return dist.Law{}, err
		}
		mc = moments{m, cv}
		if t.memo == nil {
			t.memo = make(map[maxOperands]moments)
		}
		t.memo[maxOperands{dl, dr}] = mc
	}
	return dist.Fit(mc.mean, mc.cv)
}
