// Package mrsim is a discrete-event simulator of MapReduce job execution on
// a Hadoop 2.x / YARN cluster. It substitutes for the paper's real 4–8 node
// Hadoop testbed (§5.1): model estimates are validated against response
// times *measured* on this simulator.
//
// The simulator reproduces the execution mechanics the paper's model must
// capture:
//
//   - YARN container allocation through internal/yarn (FIFO across jobs, map
//     priority 20 > reduce priority 10, node-locality for maps, late
//     container delivery via heartbeats);
//   - HDFS block placement and data-local map scheduling;
//   - the map/shuffle pipeline: each reducer fetches a map's partition as
//     soon as that map completes (slow start: reduce containers are requested
//     after 5% of maps finish);
//   - contention at shared resources: per-node processor-sharing CPU and
//     disk, and a shared cluster network;
//   - stochastic task-time jitter (stragglers), seeded for reproducibility;
//   - optional fault injection (fault.Plan): seeded node failures with
//     repair/rejoin, task retries through the normal YARN path, Pareto-tail
//     straggler jitter, and Hadoop-style speculative re-execution of late
//     maps. Fault randomness rides a separate RNG stream, so a run without
//     faults is bit-identical to one built before fault injection existed.
package mrsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/hdfs"
	"hadoop2perf/internal/simevent"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// runState is what a run borrows from statePool: the discrete-event engine,
// the per-node CPU and disk and the fabric processor-sharing resources, and
// the free list of fetch records. A reset engine keeps its calendar and
// arena capacity and a reset resource its task slice, so repeated
// simulations (median of seeds, planner sweeps, concurrent service traffic)
// skip the warm-up allocations of a cold run.
type runState struct {
	eng       *simevent.Engine
	cpu, disk []*simevent.PSResource
	net       *simevent.PSResource
	fetches   *fetchRun // free list
}

var statePool = sync.Pool{New: func() any { return &runState{eng: simevent.NewEngine()} }}

// resources readies the run's resources: one CPU and one disk per node with
// the node's class counts, and a fabric of the given capacity. Resources of
// an earlier run are reset, new ones built only past their count.
func (st *runState) resources(classes []cluster.NodeClass, fabric float64) {
	i := 0
	for _, class := range classes {
		for n := 0; n < class.Count; n++ {
			if i == len(st.cpu) {
				st.cpu = append(st.cpu, simevent.NewPSResource(st.eng, fmt.Sprintf("cpu%d", i), float64(class.CPUs)))
				st.disk = append(st.disk, simevent.NewPSResource(st.eng, fmt.Sprintf("disk%d", i), float64(class.Disks)))
			} else {
				st.cpu[i].Reset(float64(class.CPUs))
				st.disk[i].Reset(float64(class.Disks))
			}
			i++
		}
	}
	if st.net == nil {
		st.net = simevent.NewPSResource(st.eng, "net", fabric)
	} else {
		st.net.Reset(fabric)
	}
}

// release drops the run's pending work and returns the state to the pool.
// It clears before Put (not after Get): a failed run leaves calendar and
// resource closures pinning the whole sim graph, which must not survive in
// the pool.
func (st *runState) release() {
	for i := range st.cpu {
		st.cpu[i].Clear()
		st.disk[i].Clear()
	}
	if st.net != nil {
		st.net.Clear()
	}
	st.eng.Reset()
	statePool.Put(st)
}

// maxEvents bounds a single simulation run (overridable via Config.MaxEvents).
const maxEvents = 20_000_000

// faultSeedSalt decorrelates the fault-injection RNG stream from the task
// jitter stream derived from the same Config.Seed.
const faultSeedSalt = 0x5EEDFA17

// Speculative execution pacing (Hadoop's speculator soaks estimates between
// checks): attempts are reviewed every specCheckInterval seconds once
// specMinSamples map durations have been observed.
const (
	specCheckInterval = 3.0
	specMinSamples    = 3
)

// TaskClass labels trace records with the paper's three task classes.
type TaskClass string

// The three task classes of the model (C = 3, §4.1).
const (
	ClassMap         TaskClass = "map"
	ClassShuffleSort TaskClass = "shuffle-sort"
	ClassMerge       TaskClass = "merge"
)

// TaskRecord is one executed (sub)task in the job-history trace. Killed
// attempts (node loss, speculation loser) are not recorded — FaultStats
// counts them — so trace fitting keeps seeing only completed work.
type TaskRecord struct {
	JobID   int       `json:"job"`
	Class   TaskClass `json:"class"`
	TaskID  int       `json:"task"`
	Node    int       `json:"node"`
	Start   float64   `json:"start"`
	End     float64   `json:"end"`
	CPU     float64   `json:"cpu"`     // uncontended processor demand, s
	Disk    float64   `json:"disk"`    // uncontended local-disk demand, s
	Network float64   `json:"network"` // uncontended network demand, s
	Local   bool      `json:"local"`   // data-local container (maps)
	// Speculative marks a map completed by the backup copy of a speculative
	// race (fault runs only).
	Speculative bool `json:"speculative,omitempty"`
}

// Duration returns End-Start.
func (t TaskRecord) Duration() float64 { return t.End - t.Start }

// JobResult summarizes one job's simulated execution.
type JobResult struct {
	JobID    int          `json:"job"`
	Submit   float64      `json:"submit"`
	Start    float64      `json:"start"` // AM registered
	End      float64      `json:"end"`
	Response float64      `json:"response"` // End - Submit
	Tasks    []TaskRecord `json:"tasks"`
}

// FaultStats counts fault-injection activity during one run. Revocations is
// the subset of NodeFailures that hit preemptible nodes.
type FaultStats struct {
	NodeFailures        int `json:"nodeFailures,omitempty"`
	Revocations         int `json:"revocations,omitempty"`
	NodeRepairs         int `json:"nodeRepairs,omitempty"`
	TasksKilled         int `json:"tasksKilled,omitempty"`
	TasksReexecuted     int `json:"tasksReexecuted,omitempty"`
	SpeculativeLaunched int `json:"speculativeLaunched,omitempty"`
	SpeculativeWins     int `json:"speculativeWins,omitempty"`
	StragglersInjected  int `json:"stragglersInjected,omitempty"`
}

// Result is a full simulation outcome.
type Result struct {
	Jobs     []JobResult `json:"jobs"`
	Makespan float64     `json:"makespan"`
	Events   int         `json:"events"`
	// Faults reports injected-fault bookkeeping; nil when fault injection was
	// inactive for the run.
	Faults *FaultStats `json:"faults,omitempty"`
	// FailedSeeds annotates quantile/median-of-seeds results with how many
	// seeded repetitions errored (always 0 for single runs).
	FailedSeeds int `json:"failedSeeds,omitempty"`
}

// MeanResponse returns the average job response time.
func (r Result) MeanResponse() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var s float64
	for _, j := range r.Jobs {
		s += j.Response
	}
	return s / float64(len(r.Jobs))
}

// Config drives one simulation run.
type Config struct {
	Spec cluster.Spec
	Jobs []workload.Job
	// SubmitTimes optionally staggers submissions; default all at t=0.
	// Incompatible with Workflow, which derives submissions from precedence.
	SubmitTimes []float64
	// Workflow optionally imposes cross-job precedence: stage i of the DAG
	// is Jobs[i], and a dependent job is submitted (AM negotiation and all)
	// only at the instant its last parent job finishes. Root stages submit
	// at t=0. This is the discrete-event counterpart of the analytic
	// critical-path composition in internal/core.
	Workflow *workflow.DAG
	// Seed selects the jitter stream; identical seeds reproduce runs exactly.
	Seed int64
	// Scheduler selects the root-queue ordering policy. Multi-job experiments
	// use yarn.PolicyFair so concurrent jobs progress together, matching the
	// per-job slowdowns of the paper's multi-job measurements.
	Scheduler yarn.Policy
	// Faults optionally injects node failures, straggler tails and
	// speculative re-execution. nil (or a plan that enables nothing) leaves
	// the run bit-identical to a fault-free simulation. Preemptible node
	// classes with a revocation rate are revoked even when Faults is nil.
	Faults *fault.Plan
	// MaxEvents overrides the default per-run event budget (20M) when > 0.
	MaxEvents int
}

// Run executes the simulation to completion.
func Run(cfg Config) (Result, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run with cooperative cancellation: the event loop polls ctx
// periodically and aborts with ctx.Err() once it is done. ctx must be
// non-nil.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, err
	}
	if len(cfg.Jobs) == 0 {
		return Result{}, errors.New("mrsim: no jobs to run")
	}
	for i, j := range cfg.Jobs {
		if err := j.Validate(); err != nil {
			return Result{}, fmt.Errorf("mrsim: job %d: %w", i, err)
		}
	}
	if cfg.SubmitTimes != nil && len(cfg.SubmitTimes) != len(cfg.Jobs) {
		return Result{}, errors.New("mrsim: SubmitTimes length mismatch")
	}
	if cfg.Workflow != nil {
		if cfg.SubmitTimes != nil {
			return Result{}, errors.New("mrsim: SubmitTimes and Workflow are mutually exclusive")
		}
		if err := cfg.Workflow.Validate(); err != nil {
			return Result{}, err
		}
		if cfg.Workflow.NumStages() != len(cfg.Jobs) {
			return Result{}, fmt.Errorf("mrsim: workflow has %d stages for %d jobs",
				cfg.Workflow.NumStages(), len(cfg.Jobs))
		}
	}
	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.MaxEvents < 0 {
		return Result{}, errors.New("mrsim: MaxEvents must be nonnegative")
	}

	st := statePool.Get().(*runState)
	defer st.release()
	s, err := newSim(cfg, st)
	if err != nil {
		return Result{}, err
	}
	for i := range s.jobs {
		jr := s.jobs[i]
		if s.wfParentsLeft != nil && s.wfParentsLeft[i] > 0 {
			continue // released by the last parent's maybeFinish
		}
		s.eng.At(jr.submit, func() { s.startJob(jr) })
	}
	if s.stats != nil {
		// Arm the per-node failure clocks (deterministic draw order: node 0..N-1).
		for n := 0; n < s.numNodes; n++ {
			s.scheduleNodeFailure(n)
		}
	}
	budget := maxEvents
	if cfg.MaxEvents > 0 {
		budget = cfg.MaxEvents
	}
	n, err := s.eng.RunContext(ctx, budget)
	if err != nil {
		return Result{}, err
	}

	res := Result{Events: n, Faults: s.stats}
	for _, jr := range s.jobs {
		if !jr.finished {
			return Result{}, fmt.Errorf("mrsim: job %d did not finish (deadlock?)", jr.job.ID)
		}
		sort.Slice(jr.record.Tasks, func(a, b int) bool {
			ta, tb := jr.record.Tasks[a], jr.record.Tasks[b]
			if ta.Start != tb.Start {
				return ta.Start < tb.Start
			}
			return ta.TaskID < tb.TaskID
		})
		res.Jobs = append(res.Jobs, *jr.record)
		if jr.record.End > res.Makespan {
			res.Makespan = jr.record.End
		}
	}
	return res, nil
}

// sim is the mutable simulation state.
type sim struct {
	cfg      Config
	st       *runState // pooled engine, resources and fetch records
	eng      *simevent.Engine
	rm       *yarn.RM
	numNodes int
	cpu      []*simevent.PSResource // per node
	disk     []*simevent.PSResource // per node
	net      *simevent.PSResource   // shared cluster fabric
	// Per-node hardware, resolved once from the spec's class table: service
	// demands of a task are computed with the bandwidths and compute speed of
	// the node its container landed on.
	diskMBps []float64
	netMBps  []float64
	speed    []float64
	rng      *rand.Rand
	jobs     []*jobRun
	doneJobs int

	// Workflow precedence state (nil without Config.Workflow): per-stage
	// child indices and the count of unfinished parents gating each stage.
	wfChildren    [][]int
	wfParentsLeft []int

	// Fault-injection state; stats is nil when no fault mechanics are active
	// for this run (the fault-free fast path touches none of these).
	stats   *FaultStats
	faults  *fault.Plan
	frng    *rand.Rand // separate stream: the base jitter stream stays intact
	nodeUp  []bool
	upCount int
	hazards []float64 // per-node failure rate, 1/s
	preempt []bool    // node belongs to a preemptible class
	repair  float64
	maxFail int
}

func newSim(cfg Config, st *runState) (*sim, error) {
	rm, err := yarn.NewRM(st.eng, cfg.Spec)
	if err != nil {
		return nil, err
	}
	rm.Policy = cfg.Scheduler
	s := &sim{
		cfg:      cfg,
		st:       st,
		eng:      st.eng,
		rm:       rm,
		numNodes: cfg.Spec.TotalNodes(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	classes := cfg.Spec.ClassView()
	for _, class := range classes {
		sp := class.SpeedFactor()
		for n := 0; n < class.Count; n++ {
			s.diskMBps = append(s.diskMBps, class.DiskMBps)
			s.netMBps = append(s.netMBps, class.NetworkMBps)
			s.speed = append(s.speed, sp)
		}
	}
	// Cluster fabric bisection: capacity grows with node count, at least one
	// full link's worth.
	fabric := float64(s.numNodes) / 2
	if fabric < 1 {
		fabric = 1
	}
	st.resources(classes, fabric)
	s.cpu, s.disk, s.net = st.cpu[:s.numNodes], st.disk[:s.numNodes], st.net

	if fault.Active(cfg.Faults, cfg.Spec) {
		s.stats = &FaultStats{}
		s.faults = cfg.Faults
		s.frng = rand.New(rand.NewSource(cfg.Seed ^ faultSeedSalt))
		s.nodeUp = make([]bool, s.numNodes)
		s.upCount = s.numNodes
		s.hazards = make([]float64, s.numNodes)
		s.preempt = make([]bool, s.numNodes)
		n := 0
		for _, class := range cfg.Spec.ClassView() {
			h := fault.NodeHazard(cfg.Faults, class)
			for k := 0; k < class.Count; k++ {
				s.nodeUp[n] = true
				s.hazards[n] = h
				s.preempt[n] = class.Preemptible
				n++
			}
		}
		if cfg.Faults != nil {
			s.repair = cfg.Faults.RepairDelaySec
			s.maxFail = cfg.Faults.MaxNodeFailures
		}
	}

	if cfg.Workflow != nil {
		parents, children, err := cfg.Workflow.Adjacency()
		if err != nil {
			return nil, err
		}
		s.wfChildren = children
		s.wfParentsLeft = make([]int, len(parents))
		for i := range parents {
			s.wfParentsLeft[i] = len(parents[i])
		}
	}

	for i, job := range cfg.Jobs {
		submit := 0.0
		if cfg.SubmitTimes != nil {
			submit = cfg.SubmitTimes[i]
		}
		file, err := hdfs.Place(fmt.Sprintf("job%d-input", job.ID), job.InputMB, job.BlockSizeMB,
			s.numNodes, hdfs.DefaultReplication)
		if err != nil {
			return nil, err
		}
		s.jobs = append(s.jobs, &jobRun{
			sim:    s,
			idx:    i,
			job:    job,
			file:   file,
			submit: submit,
			record: &JobResult{
				JobID: job.ID, Submit: submit,
				// One record per map plus shuffle-sort and merge per reducer.
				Tasks: make([]TaskRecord, 0, file.NumSplits()+2*job.NumReduces),
			},
		})
	}
	return s, nil
}

// jitter draws a multiplicative lognormal factor with mean 1 and the given
// coefficient of variation.
func (s *sim) jitter(cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	sigma2 := math.Log(1 + cv*cv)
	sigma := math.Sqrt(sigma2)
	return math.Exp(s.rng.NormFloat64()*sigma - sigma2/2)
}

// attemptFactor draws the heavy-tailed straggler multiplier for one task
// attempt: 1 with probability 1-p, otherwise Pareto(α, xm=1). It rides the
// fault RNG stream so fault-free runs never consume it.
func (s *sim) attemptFactor() float64 {
	if s.frng == nil || s.faults == nil || s.faults.StragglerProb <= 0 {
		return 1
	}
	if s.frng.Float64() >= s.faults.StragglerProb {
		return 1
	}
	s.stats.StragglersInjected++
	return math.Pow(1-s.frng.Float64(), -1/s.faults.Alpha())
}

// allDone reports whether every job has finished (failure clocks and
// speculation ticks stop re-arming then, so the calendar drains).
func (s *sim) allDone() bool { return s.doneJobs == len(s.jobs) }

// scheduleNodeFailure arms the next failure clock of a node from its
// exponential hazard.
func (s *sim) scheduleNodeFailure(n int) {
	h := s.hazards[n]
	if h <= 0 {
		return
	}
	t := -math.Log(1-s.frng.Float64()) / h
	s.eng.After(t, func() { s.failNode(n) })
}

// failNode takes a node down: its processor-sharing resources drop all work
// in flight, the RM stops placing containers on it, and every job kills and
// re-enqueues its attempts that were running there. The last surviving node
// is never killed (the run must stay completable); its clock re-arms
// instead.
func (s *sim) failNode(n int) {
	if s.allDone() || !s.nodeUp[n] {
		return
	}
	if s.maxFail > 0 && s.stats.NodeFailures >= s.maxFail {
		return
	}
	if s.upCount <= 1 {
		s.scheduleNodeFailure(n)
		return
	}
	s.nodeUp[n] = false
	s.upCount--
	s.stats.NodeFailures++
	if s.preempt[n] {
		s.stats.Revocations++
	}
	s.rm.NodeDown(n)
	s.cpu[n].Clear()
	s.disk[n].Clear()
	for _, j := range s.jobs {
		j.nodeLost(n)
	}
	if s.repair > 0 {
		s.eng.After(s.repair, func() { s.rejoinNode(n) })
	}
}

// rejoinNode brings a repaired node back (empty, full capacity) and re-arms
// its failure clock.
func (s *sim) rejoinNode(n int) {
	if s.allDone() || s.nodeUp[n] {
		return
	}
	s.nodeUp[n] = true
	s.upCount++
	s.stats.NodeRepairs++
	s.rm.NodeUp(n)
	s.scheduleNodeFailure(n)
}

// mapAttempt is one execution attempt of a map split (fault runs may have a
// retry or a speculative backup racing the original).
type mapAttempt struct {
	split       int
	node        int
	cont        *yarn.Container
	rec         TaskRecord
	start       float64
	dead        bool
	speculative bool
}

// jobRun is the per-job ApplicationMaster state.
type jobRun struct {
	sim    *sim
	idx    int // position in Config.Jobs == workflow stage index
	job    workload.Job
	file   *hdfs.File
	submit float64
	app    *yarn.App
	record *JobResult

	pendingMaps    []int // split indices not yet assigned
	completedMaps  int
	assignedMaps   int
	completedSplit []bool
	runningMaps    []*mapAttempt
	mapDoneOnNode  [][]int // node -> completed map IDs (for locality of fetches)
	reduceAsked    bool
	reducers       []*reducerRun
	reducerStarted int
	pendingReds    []int // reducer IDs killed by a node loss, awaiting restart
	activeReducers int
	finished       bool

	// Speculation bookkeeping (fault runs with Speculation enabled).
	specPending []int // splits with a backup container requested
	mapDurSum   float64
	mapDurN     int
}

func (j *jobRun) numMaps() int { return j.file.NumSplits() }

// startJob registers the AM after its startup negotiation and submits the
// map-container requests (priority 20, node-local preferences from HDFS).
func (j *jobRun) startJob() {
	s := j.sim
	s.eng.After(j.job.Profile.AMStartup, func() {
		j.record.Start = s.eng.Now()
		j.app = &yarn.App{ID: j.job.ID, OnAllocate: j.onAllocate}
		if err := s.rm.Register(j.app); err != nil {
			panic(err) // programming error: callback always set
		}
		j.pendingMaps = make([]int, j.numMaps())
		for i := range j.pendingMaps {
			j.pendingMaps[i] = i
		}
		j.completedSplit = make([]bool, j.numMaps())
		j.mapDoneOnNode = make([][]int, s.numNodes)
		// Group map requests by primary-replica node (Table 1 shape).
		perNode := map[int]int{}
		for _, b := range j.file.Blocks {
			perNode[b.Replicas[0]]++
		}
		nodes := make([]int, 0, len(perNode))
		for n := range perNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			req := &yarn.Request{
				Priority:  yarn.PriorityMap,
				Count:     perNode[n],
				Size:      s.cfg.Spec.MapContainer,
				Type:      yarn.TypeMap,
				Preferred: []int{n},
			}
			if err := s.rm.Submit(j.app, req); err != nil {
				panic(err)
			}
		}
		if s.stats != nil && s.faults != nil && s.faults.Speculation {
			s.eng.After(specCheckInterval, j.specTick)
		}
	})
}

// maybeRequestReduces implements slow start: once the completed-map fraction
// crosses the threshold, all reduce containers are requested at priority 10
// with the "*" wildcard (no locality).
func (j *jobRun) maybeRequestReduces() {
	if j.reduceAsked {
		return
	}
	threshold := j.job.SlowStartThreshold()
	need := int(math.Ceil(threshold * float64(j.numMaps())))
	if need < 1 {
		need = 1
	}
	if j.completedMaps < need {
		return
	}
	j.reduceAsked = true
	req := &yarn.Request{
		Priority: yarn.PriorityReduce,
		Count:    j.job.NumReduces,
		Size:     j.sim.cfg.Spec.ReduceContainer,
		Type:     yarn.TypeReduce,
	}
	if err := j.sim.rm.Submit(j.app, req); err != nil {
		panic(err)
	}
}

// onAllocate is the AM's second-level scheduler: match the granted container
// to a pending task, preferring data-local maps (paper §3.4).
func (j *jobRun) onAllocate(c *yarn.Container) {
	s := j.sim
	if s.stats != nil && !s.nodeUp[c.Node] {
		// The grant was in flight when the node went down (scheduled before
		// the failure, delivered after the heartbeat). Hand it back and re-ask
		// so the task slot the request represented is not lost.
		s.rm.Release(c)
		switch c.Type {
		case yarn.TypeMap:
			if len(j.pendingMaps) > 0 || len(j.specPending) > 0 {
				j.requestOneMap(nil)
			}
		case yarn.TypeReduce:
			if len(j.pendingReds) > 0 || j.reducerStarted < j.job.NumReduces {
				j.requestOneReduce()
			}
		}
		return
	}
	switch c.Type {
	case yarn.TypeMap:
		j.runMap(c)
	case yarn.TypeReduce:
		j.runReduce(c)
	}
}

// requestOneMap submits a single map-container request (retry or backup).
func (j *jobRun) requestOneMap(preferred []int) {
	req := &yarn.Request{
		Priority:  yarn.PriorityMap,
		Count:     1,
		Size:      j.sim.cfg.Spec.MapContainer,
		Type:      yarn.TypeMap,
		Preferred: preferred,
	}
	if err := j.sim.rm.Submit(j.app, req); err != nil {
		panic(err)
	}
}

// requestOneReduce submits a single reduce-container request (restart).
func (j *jobRun) requestOneReduce() {
	req := &yarn.Request{
		Priority: yarn.PriorityReduce,
		Count:    1,
		Size:     j.sim.cfg.Spec.ReduceContainer,
		Type:     yarn.TypeReduce,
	}
	if err := j.sim.rm.Submit(j.app, req); err != nil {
		panic(err)
	}
}

// pickMapFor removes and returns the best pending split for a node:
// node-local first, then any.
func (j *jobRun) pickMapFor(node int) (int, bool) {
	if len(j.pendingMaps) == 0 {
		return 0, false
	}
	pick := -1
	for idx, split := range j.pendingMaps {
		if j.file.Blocks[split].HasReplicaOn(node) {
			pick = idx
			break
		}
	}
	if pick < 0 {
		pick = 0
	}
	split := j.pendingMaps[pick]
	j.pendingMaps = append(j.pendingMaps[:pick], j.pendingMaps[pick+1:]...)
	return split, true
}

// liveAttemptFor returns a running attempt of the split, or nil.
func (j *jobRun) liveAttemptFor(split int) *mapAttempt {
	for _, a := range j.runningMaps {
		if a.split == split {
			return a
		}
	}
	return nil
}

// removeRunningMap drops one attempt from the running list.
func (j *jobRun) removeRunningMap(a *mapAttempt) {
	for i, b := range j.runningMaps {
		if b == a {
			j.runningMaps = append(j.runningMaps[:i], j.runningMaps[i+1:]...)
			return
		}
	}
}

// pickMapWork chooses what a granted map container should run: a pending
// split (normal path and retries, node-local first), else a queued
// speculative backup whose original attempt is still running.
func (j *jobRun) pickMapWork(node int) (split int, speculative, ok bool) {
	if split, ok := j.pickMapFor(node); ok {
		return split, false, true
	}
	for len(j.specPending) > 0 {
		split := j.specPending[0]
		j.specPending = j.specPending[1:]
		if j.completedSplit[split] || j.liveAttemptFor(split) == nil {
			continue // decided (or re-enqueued as a retry) while the backup request was in flight
		}
		return split, true, true
	}
	return 0, false, false
}

// runMap executes one map task in the granted container: disk read+spill and
// CPU work on the container's node, then completion bookkeeping. Demands are
// computed against the assigned node's class hardware — disk bandwidth sets
// the I/O demand, and the class compute speed divides the CPU demand.
func (j *jobRun) runMap(c *yarn.Container) {
	s := j.sim
	split, speculative, ok := j.pickMapWork(c.Node)
	if !ok {
		// Over-allocation (can happen after request compaction races); return it.
		s.rm.Release(c)
		return
	}
	j.assignedMaps++
	d := j.job.MapDemands(j.job.SplitMB(split), s.diskMBps[c.Node])
	sp := s.speed[c.Node]
	f := s.jitter(j.job.Profile.TaskJitterCV)
	sf := s.attemptFactor()
	cpuWork := d.CPU / sp * f * sf
	diskWork := d.Disk * f * sf
	local := j.file.Blocks[split].HasReplicaOn(c.Node)
	start := s.eng.Now()
	a := &mapAttempt{
		split: split, node: c.Node, cont: c, start: start, speculative: speculative,
		rec: TaskRecord{
			JobID: j.job.ID, Class: ClassMap, TaskID: split, Node: c.Node,
			Start: start, CPU: d.CPU / sp, Disk: d.Disk, Local: local,
		},
	}
	j.runningMaps = append(j.runningMaps, a)
	if speculative {
		s.stats.SpeculativeLaunched++
	}
	finish := func() {
		if a.dead || j.finished {
			return
		}
		j.finishMap(a)
	}
	if local {
		s.disk[c.Node].Submit(diskWork, func() {
			if a.dead {
				return
			}
			s.cpu[c.Node].Submit(cpuWork, finish)
		})
	} else {
		// Remote read pulls the split across the network instead of local
		// disk. The same disk-priced seconds of work are charged to the
		// fabric — a deliberate simplification kept for equivalence with the
		// homogeneous model. Caveat for extreme classes: a node whose disks
		// are much faster than its NIC understates fabric time here; remote
		// maps are rare under replica-preferred scheduling, so the skew
		// stays second-order.
		s.net.Submit(diskWork, func() {
			if a.dead {
				return
			}
			s.cpu[c.Node].Submit(cpuWork, finish)
		})
	}
}

// finishMap completes a map attempt: record, bookkeeping, speculative-race
// resolution (the loser is killed; its in-flight resource demand keeps
// draining, so the wasted work is still charged to the node), then the
// usual downstream notifications.
func (j *jobRun) finishMap(a *mapAttempt) {
	s := j.sim
	j.removeRunningMap(a)
	if j.completedSplit[a.split] {
		s.rm.Release(a.cont) // defensive: the race was already decided
		return
	}
	j.completedSplit[a.split] = true
	a.rec.End = s.eng.Now()
	a.rec.Speculative = a.speculative
	j.record.Tasks = append(j.record.Tasks, a.rec)
	j.completedMaps++
	if s.stats != nil {
		j.mapDurSum += a.rec.End - a.start
		j.mapDurN++
		if tw := j.liveAttemptFor(a.split); tw != nil {
			// First finisher wins: kill the twin, free its container. Its
			// submitted PS work stays in the resource until it drains — the
			// loser's demand is charged even though its callback never fires.
			tw.dead = true
			j.removeRunningMap(tw)
			s.stats.TasksKilled++
			if a.speculative {
				s.stats.SpeculativeWins++
			}
			s.rm.Release(tw.cont)
		}
	}
	j.mapDoneOnNode[a.node] = append(j.mapDoneOnNode[a.node], a.split)
	s.rm.Release(a.cont)
	j.maybeRequestReduces()
	// Feed waiting reducers with the fresh map output.
	for _, r := range j.reducers {
		if r != nil {
			r.mapCompleted(a.split, a.node)
		}
	}
	j.maybeFinish()
}

// nodeLost kills every attempt of this job running on the lost node and
// re-enqueues the work through the normal YARN path: map splits go back to
// the pending list with a fresh container request preferring the split's
// primary replica; killed reducers restart their whole shuffle+merge in a
// new container. Completed map output on the lost node stays fetchable — a
// deliberate simplification (intermediate data survives in this model, as
// if spilled to replicated storage) so reducers never re-run finished maps.
func (j *jobRun) nodeLost(n int) {
	if j.app == nil || j.finished {
		return
	}
	s := j.sim
	w := 0
	var killed []*mapAttempt
	for _, a := range j.runningMaps {
		if a.node != n {
			j.runningMaps[w] = a
			w++
			continue
		}
		a.dead = true
		s.stats.TasksKilled++
		killed = append(killed, a)
	}
	for i := w; i < len(j.runningMaps); i++ {
		j.runningMaps[i] = nil
	}
	j.runningMaps = j.runningMaps[:w]
	for _, a := range killed {
		// Retry unless another live attempt of the split survives (a
		// speculative twin on a healthy node).
		if j.completedSplit[a.split] {
			continue
		}
		alive := false
		for _, b := range j.runningMaps {
			if b.split == a.split {
				alive = true
				break
			}
		}
		if alive {
			continue
		}
		j.pendingMaps = append(j.pendingMaps, a.split)
		s.stats.TasksReexecuted++
		j.requestOneMap([]int{j.file.Blocks[a.split].Replicas[0]})
	}

	for id, r := range j.reducers {
		if r == nil || r.dead || r.mergeDone || r.node != n {
			continue
		}
		r.dead = true
		j.reducers[id] = nil
		if r.shuffleEnd {
			// The killed attempt's shuffle-sort already finished and was
			// recorded; a killed attempt leaves no records, and the
			// restarted reducer records its own.
			if i := slices.Index(j.record.Tasks, r.shuffleRec); i >= 0 {
				j.record.Tasks = slices.Delete(j.record.Tasks, i, i+1)
			}
		}
		s.stats.TasksKilled++
		s.stats.TasksReexecuted++
		j.pendingReds = append(j.pendingReds, id)
		j.requestOneReduce()
	}
}

// specTick periodically reviews running map attempts and requests a backup
// container for the slowest late one (Hadoop's speculator cadence).
func (j *jobRun) specTick() {
	if j.finished || j.sim.allDone() {
		return
	}
	j.checkSpeculation()
	j.sim.eng.After(specCheckInterval, j.specTick)
}

// checkSpeculation requests at most one backup per tick, for the slowest
// attempt whose elapsed time exceeds Lateness × the running mean map
// duration, with no twin running or queued. Concurrent backups are capped at
// ~1/8 of the job's maps.
func (j *jobRun) checkSpeculation() {
	s := j.sim
	if j.mapDurN < specMinSamples {
		return
	}
	backups := len(j.specPending)
	for _, a := range j.runningMaps {
		if a.speculative {
			backups++
		}
	}
	if backups > j.numMaps()/8 {
		return
	}
	mean := j.mapDurSum / float64(j.mapDurN)
	late := mean * s.faults.Lateness()
	now := s.eng.Now()
	var worst *mapAttempt
	var worstElapsed float64
	for _, a := range j.runningMaps {
		if a.speculative || j.completedSplit[a.split] {
			continue
		}
		if twinned := j.twinCount(a.split) > 1 || j.specQueued(a.split); twinned {
			continue
		}
		if el := now - a.start; el > late && el > worstElapsed {
			worst, worstElapsed = a, el
		}
	}
	if worst == nil {
		return
	}
	j.specPending = append(j.specPending, worst.split)
	j.requestOneMap([]int{j.file.Blocks[worst.split].Replicas[0]})
}

func (j *jobRun) twinCount(split int) int {
	n := 0
	for _, a := range j.runningMaps {
		if a.split == split {
			n++
		}
	}
	return n
}

func (j *jobRun) specQueued(split int) bool {
	for _, sp := range j.specPending {
		if sp == split {
			return true
		}
	}
	return false
}

// runReduce starts (or restarts) a reducer in the granted container:
// shuffle-sort fetches from completed maps, then the merge subtask.
func (j *jobRun) runReduce(c *yarn.Container) {
	id := -1
	switch {
	case len(j.pendingReds) > 0:
		id = j.pendingReds[0]
		j.pendingReds = j.pendingReds[1:]
	case j.reducerStarted < j.job.NumReduces:
		id = j.reducerStarted
		j.reducerStarted++
	default:
		j.sim.rm.Release(c)
		return
	}
	r := &reducerRun{
		job:  j,
		id:   id,
		node: c.Node,
		cont: c,
	}
	if id < len(j.reducers) {
		j.reducers[id] = r
	} else {
		j.reducers = append(j.reducers, r)
	}
	j.activeReducers++
	r.start()
}

// maybeFinish unregisters the AM once every reducer has completed.
func (j *jobRun) maybeFinish() {
	if j.finished {
		return
	}
	if j.completedMaps < j.numMaps() {
		return
	}
	done := 0
	for _, r := range j.reducers {
		if r != nil && r.mergeDone {
			done++
		}
	}
	if j.reducerStarted < j.job.NumReduces || done < j.job.NumReduces {
		return
	}
	j.finished = true
	j.record.End = j.sim.eng.Now()
	j.record.Response = j.record.End - j.record.Submit
	j.sim.doneJobs++
	j.sim.rm.Unregister(j.app)
	j.releaseChildren()
}

// releaseChildren submits every workflow child whose last unfinished parent
// was this job: the child's submit time is the release instant, so its
// recorded response excludes the time spent waiting on precedence.
func (j *jobRun) releaseChildren() {
	s := j.sim
	if s.wfChildren == nil {
		return
	}
	now := s.eng.Now()
	for _, c := range s.wfChildren[j.idx] {
		s.wfParentsLeft[c]--
		if s.wfParentsLeft[c] > 0 {
			continue
		}
		child := s.jobs[c]
		child.submit = now
		child.record.Submit = now
		s.startJob(child)
	}
}

// reducerRun is one reduce task: a shuffle-sort subtask (per-map fetches over
// the network + partial sort) followed by a merge subtask (final sort +
// reduce function + write). A reducer killed by a node loss restarts from
// scratch (whole shuffle redone) as a fresh reducerRun with the same id.
type reducerRun struct {
	job        *jobRun
	id         int
	node       int
	cont       *yarn.Container
	started    bool
	dead       bool
	sf         float64 // per-attempt straggler factor (1 outside fault runs)
	shuffleRec TaskRecord
	fetched    []bool // by split index
	numFetched int
	inFlight   int
	shuffleEnd bool
	mergeDone  bool
}

func (r *reducerRun) start() {
	s := r.job.sim
	r.started = true
	r.sf = s.attemptFactor()
	r.fetched = make([]bool, r.job.numMaps())
	r.shuffleRec = TaskRecord{
		JobID: r.job.job.ID, Class: ClassShuffleSort, TaskID: r.id, Node: r.node,
		Start: s.eng.Now(),
	}
	ss := r.job.job.ShuffleSortDemands(s.netMBps[r.node], s.diskMBps[r.node])
	r.shuffleRec.CPU = ss.CPU / s.speed[r.node]
	r.shuffleRec.Disk = ss.Disk
	r.shuffleRec.Network = ss.Network
	// Fetch everything already finished (in node order — deterministic);
	// future completions arrive via mapCompleted.
	for node, splits := range r.job.mapDoneOnNode {
		for _, split := range splits {
			r.fetch(split, node)
		}
	}
	r.maybeFinishShuffle()
}

// mapCompleted notifies the reducer that a map's output became available.
func (r *reducerRun) mapCompleted(split, node int) {
	if !r.started || r.dead || r.mergeDone {
		return
	}
	r.fetch(split, node)
}

// fetch copies one map's partition: network transfer (skipped for co-located
// map output), then local disk write plus shuffle/sort CPU. The receiving
// node's class hardware prices the transfer, the spill and the sort; the
// attempt's straggler factor slows its node-local work (disk, CPU) but not
// the shared fabric.
func (r *reducerRun) fetch(split, node int) {
	if r.fetched[split] {
		return
	}
	r.fetched[split] = true
	r.numFetched++
	r.inFlight++
	s := r.job.sim
	job := r.job.job
	partMB := job.SplitMB(split) * job.Profile.MapOutputRatio / float64(job.NumReduces)
	f := s.jitter(job.Profile.TaskJitterCV)
	fr := s.st.newFetch()
	fr.r = r
	fr.diskWork = partMB / s.diskMBps[r.node] * f * r.sf
	fr.cpuWork = partMB * (job.Profile.ShuffleCPUPerMB + job.Profile.SortCPUPerMB) / s.speed[r.node] * f * r.sf
	if node == r.node {
		fr.afterNet() // map output is local; no network hop
		return
	}
	s.net.Submit(partMB/s.netMBps[r.node]*f, fr.onNet)
}

// fetchRun is one map-output fetch in flight: after the network hop its
// partition spills to the reducer node's disk, then sorts on its CPU. The
// continuations are method values bound once when the record is built, and
// records return to the run state's free list after their last step, so a
// fetch allocates nothing once the list is warm.
type fetchRun struct {
	r                    *reducerRun
	diskWork, cpuWork    float64
	onNet, onDisk, onCPU func()
	next                 *fetchRun // free list
}

// newFetch takes a record from the free list, or builds one.
func (st *runState) newFetch() *fetchRun {
	fr := st.fetches
	if fr == nil {
		fr = &fetchRun{}
		fr.onNet, fr.onDisk, fr.onCPU = fr.afterNet, fr.afterDisk, fr.afterCPU
		return fr
	}
	st.fetches, fr.next = fr.next, nil
	return fr
}

// free returns the record to the free list; its reducer is dropped so the
// list pins no run.
func (fr *fetchRun) free() {
	st := fr.r.job.sim.st
	fr.r = nil
	fr.next, st.fetches = st.fetches, fr
}

func (fr *fetchRun) afterNet() {
	r := fr.r
	if r.dead {
		fr.free()
		return
	}
	r.job.sim.disk[r.node].Submit(fr.diskWork, fr.onDisk)
}

func (fr *fetchRun) afterDisk() {
	r := fr.r
	if r.dead {
		fr.free()
		return
	}
	r.job.sim.cpu[r.node].Submit(fr.cpuWork, fr.onCPU)
}

func (fr *fetchRun) afterCPU() {
	r := fr.r
	fr.free()
	if r.dead {
		return
	}
	r.inFlight--
	r.maybeFinishShuffle()
}

// maybeFinishShuffle closes the shuffle-sort subtask once all map partitions
// have been copied and sorted, then starts merge.
func (r *reducerRun) maybeFinishShuffle() {
	if r.shuffleEnd || r.inFlight > 0 {
		return
	}
	if r.numFetched < r.job.numMaps() {
		return
	}
	r.shuffleEnd = true
	s := r.job.sim
	r.shuffleRec.End = s.eng.Now()
	r.job.record.Tasks = append(r.job.record.Tasks, r.shuffleRec)
	r.runMerge()
}

func (r *reducerRun) runMerge() {
	s := r.job.sim
	job := r.job.job
	d := job.MergeDemands(s.diskMBps[r.node])
	sp := s.speed[r.node]
	f := s.jitter(job.Profile.TaskJitterCV)
	cpuWork := d.CPU / sp * f * r.sf
	diskWork := d.Disk * f * r.sf
	rec := TaskRecord{
		JobID: job.ID, Class: ClassMerge, TaskID: r.id, Node: r.node,
		Start: s.eng.Now(), CPU: d.CPU / sp, Disk: d.Disk,
	}
	s.cpu[r.node].Submit(cpuWork, func() {
		if r.dead {
			return
		}
		s.disk[r.node].Submit(diskWork, func() {
			if r.dead {
				return
			}
			rec.End = s.eng.Now()
			r.job.record.Tasks = append(r.job.record.Tasks, rec)
			r.mergeDone = true
			s.rm.Release(r.cont)
			r.job.maybeFinish()
		})
	})
}

// startJob is the sim-level entry point for one job.
func (s *sim) startJob(j *jobRun) { j.startJob() }

// runSeed is the per-seed runner used by the seed-batch helpers; a test hook
// replaces it to exercise partial-failure aggregation deterministically.
var runSeed = RunContext

// RunSeedsContext runs the simulation reps times with consecutive seeds
// (cfg.Seed, cfg.Seed+1, ...) and returns the successful runs sorted by
// ascending mean response time, plus the number of seeds that failed.
//
// Fault injection makes individual seeds legitimately fallible (a run can
// exceed its event budget), so the batch tolerates failures as long as a
// majority succeeds: when fewer than ⌈reps/2⌉ runs complete, the batch
// errors, wrapping the first per-seed failure. Context cancellation aborts
// the whole batch immediately with ctx.Err().
func RunSeedsContext(ctx context.Context, cfg Config, reps int) (runs []Result, failed int, err error) {
	if reps <= 0 {
		return nil, 0, errors.New("mrsim: reps must be positive")
	}
	runs = make([]Result, 0, reps)
	var firstErr error
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := runSeed(ctx, c)
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("seed %d: %w", c.Seed, err)
			}
			continue
		}
		runs = append(runs, res)
	}
	if len(runs) < (reps+1)/2 {
		return nil, failed, fmt.Errorf("mrsim: %d of %d seeded runs failed (first: %w)", failed, reps, firstErr)
	}
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].MeanResponse() < runs[b].MeanResponse() })
	return runs, failed, nil
}

// Quantile returns the run at quantile q of a batch sorted by mean response:
// the element at index ⌊q·n⌋ (clamped), which at q=0.5 is the upper median —
// the same pick RunMedianOfSeeds has always made.
func Quantile(runs []Result, q float64) Result {
	if len(runs) == 0 {
		return Result{}
	}
	idx := int(q * float64(len(runs)))
	if idx >= len(runs) {
		idx = len(runs) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return runs[idx]
}

// RunQuantileOfSeeds generalizes RunMedianOfSeeds: it runs reps consecutive
// seeds and returns the run at quantile q (0 ≤ q ≤ 1) of the successful
// runs ordered by mean response, annotated with how many seeds failed
// (Result.FailedSeeds). It errors when fewer than ⌈reps/2⌉ seeds succeed.
func RunQuantileOfSeeds(ctx context.Context, cfg Config, reps int, q float64) (Result, error) {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return Result{}, fmt.Errorf("mrsim: quantile must be in [0,1] (got %v)", q)
	}
	runs, failed, err := RunSeedsContext(ctx, cfg, reps)
	if err != nil {
		return Result{}, err
	}
	res := Quantile(runs, q)
	res.FailedSeeds = failed
	return res, nil
}

// RunMedianOfSeeds runs the simulation reps times with consecutive seeds and
// returns the run whose mean response time is the median — mirroring the
// paper's "repeat 5 times, take the median" methodology (§5.1). Seeds that
// fail are tolerated as long as a majority succeeds; Result.FailedSeeds
// reports how many were dropped.
func RunMedianOfSeeds(cfg Config, reps int) (Result, error) {
	return RunQuantileOfSeeds(context.Background(), cfg, reps, 0.5)
}
