package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/service"
	"hadoop2perf/internal/workload"
)

// Inputs are pure functions of the seed: every generator draws from its own
// PCG stream keyed by (seed, salt), so two workloads never share a stream and
// the same seed always yields byte-identical request bodies.
const (
	saltPredictMiss uint64 = 0x6d697373 // "miss"
	saltPredictHit  uint64 = 0x68697421 // "hit!"
	saltHitOrder    uint64 = 0x6f726472 // "ordr"
	saltPlan        uint64 = 0x706c616e // "plan"
	saltFigures     uint64 = 0x66696773 // "figs"
	saltSample      uint64 = 0x736d706c // "smpl"
)

// blockMB is the HDFS block size the service assumes when a request omits it.
const blockMB = 128

func newRand(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// predictShape is one /v1/predict request: a flat cluster of Nodes nodes, or
// a two-class cluster of Fast + Slow nodes, running NumJobs copies of a
// WordCount job.
type predictShape struct {
	Nodes      int
	Fast, Slow int
	InputMB    float64
	Reduces    int
	NumJobs    int
}

// The predict mix is stratified so that every stretch of the stream has the
// same composition whatever the seed. A stratum is a job/cluster class, an
// input-size bin and a node-count bin; a stream block of predictBlock
// requests holds every (class, input bin) pair once, each class meets every
// node bin once, and the seed shuffles the block and draws the values
// inside each bin.
const predictBlock = 128

// jobClusterCycle gives the job/cluster classes in proportion: one request
// in four runs 4 concurrent jobs with 4 reducers, and independently one in
// four runs on a 2-class cluster.
var jobClusterCycle = [16]struct{ fourJobs, twoClass bool }{
	{false, false}, {false, false}, {false, false}, {false, false},
	{false, false}, {false, false}, {false, false}, {false, false},
	{false, false}, {false, true}, {false, true}, {false, true},
	{true, false}, {true, false}, {true, false}, {true, true},
}

// nodeBins split the 2–32 node range so that the node count varies by at
// most 1.5× inside a bin.
var nodeBins = [8][2]int{{2, 2}, {3, 3}, {4, 5}, {6, 7}, {8, 10}, {11, 14}, {15, 21}, {22, 32}}

// inputBin returns the i-th of 8 geometric input-size bins spanning
// 0.5–8 GB, each √2 wide.
func inputBin(i int) (lo, hi float64) {
	return 512 * math.Pow(2, float64(i)/2), 512 * math.Pow(2, float64(i+1)/2)
}

// drawPredictShape draws one request of the given stratum: the job/cluster
// class index into jobClusterCycle, an input bin and a node bin. Single jobs
// use 1–4 reducers; inputs have two decimals, so the body encodes them
// exactly.
func drawPredictShape(r *rand.Rand, class, in, nodes int) predictShape {
	lo, hi := inputBin(in)
	s := predictShape{
		InputMB: math.Round(100*(lo+r.Float64()*(hi-lo))) / 100,
		Reduces: 1 + r.IntN(4),
		NumJobs: 1,
	}
	jc := jobClusterCycle[class]
	if jc.fourJobs {
		s.NumJobs, s.Reduces = 4, 4
	}
	nb := nodeBins[nodes]
	total := nb[0] + r.IntN(nb[1]-nb[0]+1)
	if jc.twoClass {
		s.Fast = 1 + r.IntN(total-1)
		s.Slow = total - s.Fast
	} else {
		s.Nodes = total
	}
	return s
}

// predictShapes returns the first n requests of the (seed, salt) stream, all
// distinct.
func predictShapes(seed, salt uint64, n int) []predictShape {
	r := newRand(seed, salt)
	seen := make(map[predictShape]struct{}, n)
	out := make([]predictShape, 0, n)
	for block := 0; len(out) < n; block++ {
		for _, j := range r.Perm(predictBlock) {
			if len(out) == n {
				break
			}
			class, in := j%len(jobClusterCycle), j/len(jobClusterCycle)
			nodes := (in + class + block) % len(nodeBins)
			for {
				s := drawPredictShape(r, class, in, nodes)
				if _, dup := seen[s]; !dup {
					seen[s] = struct{}{}
					out = append(out, s)
					break
				}
			}
		}
	}
	return out
}

// nodeClass is one class of the 2-class clusters: the calibrated node
// hardware at a relative compute speed.
func nodeClass(name string, count int, speed float64) cluster.NodeClass {
	d := cluster.Default(0)
	return cluster.NodeClass{
		Name: name, Count: count, Capacity: d.NodeCapacity,
		CPUs: d.CPUPerNode, Disks: d.DiskPerNode,
		DiskMBps: d.DiskMBps, NetworkMBps: d.NetworkMBps, Speed: speed,
	}
}

func (s predictShape) classes() []cluster.NodeClass {
	if s.Fast == 0 {
		return nil
	}
	return []cluster.NodeClass{nodeClass("fast", s.Fast, 1.5), nodeClass("slow", s.Slow, 1)}
}

// spec is the cluster the service builds from the request's cluster object.
func (s predictShape) spec() cluster.Spec {
	if s.Fast == 0 {
		return cluster.Default(s.Nodes)
	}
	spec := cluster.Default(0)
	spec.Classes = s.classes()
	return spec
}

// config is the core configuration the service solves for this request.
func (s predictShape) config() (core.Config, error) {
	job, err := workload.NewJob(0, s.InputMB, blockMB, s.Reduces, workload.WordCount())
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Spec: s.spec(), Job: job, NumJobs: s.NumJobs}, nil
}

// request is the engine-level twin of body, for direct Service calls.
func (s predictShape) request() (service.PredictRequest, error) {
	cfg, err := s.config()
	if err != nil {
		return service.PredictRequest{}, err
	}
	return service.PredictRequest{Spec: cfg.Spec, Job: cfg.Job, NumJobs: cfg.NumJobs}, nil
}

// Wire bodies, mirroring the subset of the mrserved API the workloads use.
type clusterWire struct {
	Nodes   int                 `json:"nodes,omitempty"`
	Classes []cluster.NodeClass `json:"classes,omitempty"`
}

type jobWire struct {
	InputMB float64 `json:"inputMB"`
	Reduces int     `json:"reduces,omitempty"`
}

type predictWire struct {
	Cluster clusterWire `json:"cluster"`
	Job     jobWire     `json:"job"`
	NumJobs int         `json:"numJobs,omitempty"`
}

type planWire struct {
	Cluster     clusterWire `json:"cluster"`
	Job         jobWire     `json:"job"`
	NumJobs     int         `json:"numJobs,omitempty"`
	Nodes       []int       `json:"nodes"`
	DeadlineSec float64     `json:"deadlineSec"`
	Exhaustive  bool        `json:"exhaustive,omitempty"`
}

func (s predictShape) body() []byte {
	b, err := json.Marshal(predictWire{
		Cluster: clusterWire{Nodes: s.Nodes, Classes: s.classes()},
		Job:     jobWire{InputMB: s.InputMB, Reduces: s.Reduces},
		NumJobs: s.NumJobs,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal predict body: %v", err)) // plain structs always marshal
	}
	return b
}

// hitOrderLen is the length of the predict-hit order; a run that sends more
// requests cycles through it.
const hitOrderLen = 1 << 16

// hitOrder is the seeded order in which predict-hit sends its hot keys: each
// entry is a key index below keys.
func hitOrder(seed uint64, keys int) []uint16 {
	r := newRand(seed, saltHitOrder)
	out := make([]uint16, hitOrderLen)
	for i := range out {
		out[i] = uint16(r.IntN(keys))
	}
	return out
}

// Plan queries search a 64-point node axis. Their shapes follow a fixed
// cycle of strata, one query per stratum per cycle in seeded order, so any
// stretch of the stream has the same mix whatever the seed: the seed moves
// input sizes within a stratum, deadlines and order. Deadline bounds come
// from direct model solves at the axis ends for one base job per stratum and
// group of planVariants cycles; the queries of a group use the base's input
// plus planStepMB per cycle, so every query has a distinct cache key and
// warm-start signature (no repeats, no cross-query reuse) while its deadline
// stays inside its own axis-end response times.
const (
	planMinNodes = 2
	planMaxNodes = 65
	planVariants = 32
	planStepMB   = 0.25
)

// planAxis is the node axis every plan query searches.
func planAxis() []int {
	out := make([]int, 0, planMaxNodes-planMinNodes+1)
	for n := planMinNodes; n <= planMaxNodes; n++ {
		out = append(out, n)
	}
	return out
}

// planStratum is one query shape class: a block count and a job count.
type planStratum struct{ Blocks, NumJobs int }

// planStrata is the query cycle: three in four single-job with 0.5–3.5 GB of
// input, one in four with 4 concurrent jobs and 0.5–1.5 GB, always one
// reducer. These ranges keep every query on the bisection path: the
// response curve over 2–65 nodes is non-increasing for single jobs up to 32
// blocks and for 4 jobs up to 12 blocks, and rises at some larger sizes
// (single jobs from 33 blocks, 4 jobs from 13), where the planner falls back
// to solving all 64 candidates, a bimodal cost that would swamp the
// run-to-run comparison. A query that falls back fails (planFellBack).
func planStrata() []planStratum {
	var out []planStratum
	for b := 4; b < 28; b++ {
		out = append(out, planStratum{Blocks: b, NumJobs: 1})
	}
	for b := 4; b < 12; b++ {
		out = append(out, planStratum{Blocks: b, NumJobs: 4})
	}
	return out
}

// planBase is a job shape whose axis-end response times bound the deadlines
// of its variants.
type planBase struct {
	InputMB float64
	NumJobs int
}

// drawPlanBases draws one base per stratum for each of groups groups, group
// by group. Inputs keep at least 16 MB clear of a block boundary, so every
// variant has its base's map count.
func drawPlanBases(seed uint64, groups int) []planBase {
	r := newRand(seed, saltPlan)
	strata := planStrata()
	out := make([]planBase, 0, groups*len(strata))
	for g := 0; g < groups; g++ {
		for _, st := range strata {
			out = append(out, planBase{
				InputMB: float64(st.Blocks*blockMB+16+r.IntN(96)) + float64(r.IntN(100))/100,
				NumJobs: st.NumJobs,
			})
		}
	}
	return out
}

// planGroups is the number of base groups n queries need.
func planGroups(n int) int {
	per := len(planStrata()) * planVariants
	return (n + per - 1) / per
}

func (b planBase) config(nodes int, inputMB float64) (core.Config, error) {
	job, err := workload.NewJob(0, inputMB, blockMB, 1, workload.WordCount())
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Spec: cluster.Default(nodes), Job: job, NumJobs: b.NumJobs}, nil
}

// planBounds is the response time of a base at the two axis ends.
type planBounds struct{ Fast, Slow float64 }

// solvePlanBounds computes every base's axis-end response times with direct
// model solves, so the service cache stays cold.
func solvePlanBounds(bases []planBase) ([]planBounds, error) {
	p := core.NewPredictor()
	out := make([]planBounds, len(bases))
	for i, b := range bases {
		for _, end := range []struct {
			nodes int
			dst   *float64
		}{{planMaxNodes, &out[i].Fast}, {planMinNodes, &out[i].Slow}} {
			cfg, err := b.config(end.nodes, b.InputMB)
			if err != nil {
				return nil, err
			}
			pred, err := p.Predict(cfg)
			if err != nil {
				return nil, fmt.Errorf("plan bound %d nodes: %w", end.nodes, err)
			}
			*end.dst = pred.ResponseTime
		}
	}
	return out, nil
}

// planQuery is one deadline /v1/plan request.
type planQuery struct {
	InputMB  float64
	NumJobs  int
	Deadline float64
}

// planQueries builds n queries, cycle by cycle, from the bases and their
// bounds: each deadline is drawn from the inner 90% of its base's
// [fast, slow] response range. No two queries share a job: an input that
// another group's variant already took moves up by 0.01 MB (bases keep 16 MB
// clear of the next block boundary, far more than these moves).
func planQueries(seed uint64, bases []planBase, bounds []planBounds, n int) []planQuery {
	r := newRand(seed, saltPlan^0xffff)
	strata := len(planStrata())
	type jobKey struct {
		inputMB float64
		numJobs int
	}
	seen := make(map[jobKey]bool, n)
	out := make([]planQuery, 0, n)
	for cycle := 0; len(out) < n; cycle++ {
		group, variant := cycle/planVariants, cycle%planVariants
		for _, s := range r.Perm(strata) {
			if len(out) == n {
				break
			}
			b := group*strata + s
			k := jobKey{bases[b].InputMB + planStepMB*float64(variant), bases[b].NumJobs}
			for seen[k] {
				k.inputMB = math.Round(100*k.inputMB+1) / 100
			}
			seen[k] = true
			lo, hi := bounds[b].Fast, bounds[b].Slow
			out = append(out, planQuery{
				InputMB:  k.inputMB,
				NumJobs:  k.numJobs,
				Deadline: lo + (0.05+0.9*r.Float64())*(hi-lo),
			})
		}
	}
	return out
}

func (q planQuery) body(exhaustive bool) []byte {
	b, err := json.Marshal(planWire{
		Cluster:     clusterWire{Nodes: planMinNodes},
		Job:         jobWire{InputMB: q.InputMB, Reduces: 1},
		NumJobs:     q.NumJobs,
		Nodes:       planAxis(),
		DeadlineSec: q.Deadline,
		Exhaustive:  exhaustive,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal plan body: %v", err)) // plain structs always marshal
	}
	return b
}

// request is the engine-level twin of body, for direct Service calls.
func (q planQuery) request() (service.PlanRequest, error) {
	job, err := workload.NewJob(0, q.InputMB, blockMB, 1, workload.WordCount())
	if err != nil {
		return service.PlanRequest{}, err
	}
	return service.PlanRequest{
		Spec: cluster.Default(planMinNodes), Job: job, NumJobs: q.NumJobs,
		Nodes: planAxis(), DeadlineSec: q.Deadline,
	}, nil
}

// sampleIndices picks about n/every indices of [0, n) from the seed: the
// requests whose responses are kept and checked after timing.
func sampleIndices(seed uint64, n, every int) []bool {
	r := newRand(seed, saltSample)
	out := make([]bool, n)
	for i := range out {
		out[i] = r.IntN(every) == 0
	}
	return out
}
