package mrsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// runDigest is the SHA-256 of digestRuns' output. It pins every simulated
// time bit, every event count and every fault counter of the digest set;
// any change to the simulator's arithmetic, event order or scheduling order
// moves it. Refresh it only for a change that is meant to move simulated
// times, and say so where the change is recorded; runEvents must then stay
// as it is. It is the amd64 digest: a 386 build moves low bits of the
// simulated times, as it moves TestSimHomogeneousEquivalence's goldens.
const runDigest = "6c287dd872943a5edfbb6b7f7058b6646e3c2d580eb308664b24ca9f1aa4eb9a"

// runEvents is every digest config's Result.Events, in digestRunConfigs
// order: five seeds per figure point, then the fault, 2-class and workflow
// configs of each seed. runDigest hashes the event counts together with the
// time bits, so a change meant to move only low bits of the simulated times
// re-pins runDigest; this table stays, and catches a change that also adds,
// drops or merges an event (a completion fired in another event, a task
// dispatched in another order).
var runEvents = []int{
	139, 139, 139, 139, 139, // fig10, 4 nodes
	195, 196, 196, 196, 195, // fig10, 6 nodes
	251, 251, 251, 251, 251, // fig10, 8 nodes
	553, 553, 553, 553, 553, // fig11, 4 nodes
	785, 785, 785, 785, 785, // fig11, 6 nodes
	1001, 1001, 1001, 1001, 1001, // fig11, 8 nodes
	620, 618, 623, 619, 619, // fig12, 4 nodes
	869, 869, 869, 869, 869, // fig12, 6 nodes
	1115, 1115, 1115, 1115, 1115, // fig12, 8 nodes
	2487, 2477, 2480, 2486, 2485, // fig13, 4 nodes
	3473, 3455, 3473, 3472, 3484, // fig13, 6 nodes
	4473, 4471, 4459, 4453, 4488, // fig13, 8 nodes
	1227, 1219, 1222, 1221, 1223, // fig15, 4 nodes
	1706, 1705, 1710, 1711, 1717, // fig15, 6 nodes
	2197, 2195, 2199, 2199, 2196, // fig15, 8 nodes
	620, 618, 623, 619, 619, // fig14, 1 job
	1243, 1243, 1239, 1247, 1243, // fig14, 2 jobs
	1855, 1874, 1849, 1851, 1855, // fig14, 3 jobs
	2487, 2477, 2480, 2486, 2485, // fig14, 4 jobs
	413, 251, 192, // seed 1: faults, 2-class, diamond workflow
	395, 227, 192, // seed 2: faults, 2-class, diamond workflow
	477, 251, 192, // seed 3: faults, 2-class, diamond workflow
}

// TestRunEvents pins the event count of every digest config.
func TestRunEvents(t *testing.T) {
	cfgs := digestRunConfigs(t)
	if len(cfgs) != len(runEvents) {
		t.Fatalf("%d digest configs, %d pinned event counts", len(cfgs), len(runEvents))
	}
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.Events != runEvents[i] {
			t.Errorf("config %d: %d events, want %d", i, res.Events, runEvents[i])
		}
	}
}

// digestRunConfigs is the digest set: the 19 points of the paper's §5.2
// figures (figures 10–15, built as bench.RunPoint builds them) at seeds
// 1–5, a fault plan with node crashes, repairs, stragglers and speculation,
// a 2-class cluster with a slow generation and preemptible nodes, and a
// diamond workflow DAG.
func digestRunConfigs(t *testing.T) []Config {
	t.Helper()
	const gb = 1024
	type point struct {
		inputMB, blockMB float64
		nodes, jobs      int
	}
	var points []point
	for _, fig := range []struct {
		inputMB, blockMB float64
		jobs             int
	}{{1 * gb, 128, 1}, {1 * gb, 128, 4}, {5 * gb, 128, 1}, {5 * gb, 128, 4}, {5 * gb, 64, 1}} {
		for _, nodes := range []int{4, 6, 8} {
			points = append(points, point{fig.inputMB, fig.blockMB, nodes, fig.jobs})
		}
	}
	for jobs := 1; jobs <= 4; jobs++ {
		points = append(points, point{5 * gb, 128, 4, jobs})
	}
	var out []Config
	for _, p := range points {
		job, err := workload.NewJob(0, p.inputMB, p.blockMB, p.nodes, workload.WordCount())
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]workload.Job, p.jobs)
		for i := range jobs {
			jobs[i] = job
			jobs[i].ID = i
		}
		pol := yarn.PolicyFIFO
		if p.jobs > 1 {
			pol = yarn.PolicyFair
		}
		for seed := int64(1); seed <= 5; seed++ {
			out = append(out, Config{Spec: cluster.Default(p.nodes), Jobs: jobs, Seed: seed, Scheduler: pol})
		}
	}

	crashes := &fault.Plan{NodeMTTFSec: 150, RepairDelaySec: 30, StragglerProb: 0.3, StragglerAlpha: 2, Speculation: true}
	base := cluster.Resource{MemoryMB: 32768, VCores: 32}
	twoClass := cluster.Default(0)
	twoClass.Classes = []cluster.NodeClass{
		{Name: "fast", Count: 2, Capacity: base, CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1},
		{Name: "slow", Count: 2, Capacity: base, CPUs: 4, Disks: 1, DiskMBps: 120, NetworkMBps: 110, Speed: 0.5,
			Preemptible: true, RevocationRate: 20},
	}
	diamond := &workflow.DAG{
		Stages: []string{"src", "left", "right", "join"},
		Edges: []workflow.Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out,
			Config{Spec: cluster.Default(4), Jobs: wfJobs(t, 1024, 4, 2), Seed: seed,
				Scheduler: yarn.PolicyFair, Faults: crashes},
			Config{Spec: twoClass, Jobs: wfJobs(t, 1024, 3, 2), Seed: seed, Scheduler: yarn.PolicyFair},
			Config{Spec: cluster.Default(4), Jobs: wfJobs(t, 512, 2, 4), Workflow: diamond, Seed: seed,
				Scheduler: yarn.PolicyFair},
		)
	}
	return out
}

// digestResult writes one run's times, counts and fault counters.
func digestResult(h hash.Hash, res Result) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(res.Events))
	f64(res.Makespan)
	if fs := res.Faults; fs == nil {
		u64(0)
	} else {
		u64(1)
		for _, v := range []int{fs.NodeFailures, fs.Revocations, fs.NodeRepairs, fs.TasksKilled,
			fs.TasksReexecuted, fs.SpeculativeLaunched, fs.SpeculativeWins, fs.StragglersInjected} {
			u64(uint64(v))
		}
	}
	u64(uint64(len(res.Jobs)))
	for _, j := range res.Jobs {
		u64(uint64(j.JobID))
		f64(j.Submit)
		f64(j.Start)
		f64(j.End)
		f64(j.Response)
		u64(uint64(len(j.Tasks)))
		for _, task := range j.Tasks {
			h.Write([]byte(task.Class))
			u64(uint64(task.TaskID))
			u64(uint64(task.Node))
			f64(task.Start)
			f64(task.End)
		}
	}
}

// digestRuns simulates every digest config and hashes the results in
// order. It also checks that the fault and 2-class configs exercised what
// they are there for: node crashes, speculation and revocations.
func digestRuns(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	var total FaultStats
	for i, cfg := range digestRunConfigs(t) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if fs := res.Faults; fs != nil {
			total.NodeFailures += fs.NodeFailures
			total.Revocations += fs.Revocations
			total.SpeculativeLaunched += fs.SpeculativeLaunched
		}
		digestResult(h, res)
	}
	if total.NodeFailures == 0 || total.Revocations == 0 || total.SpeculativeLaunched == 0 {
		t.Errorf("digest set misses a fault mechanism: %+v", total)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunDigest pins the simulator's output bit for bit over the digest
// set: an optimization of the event calendar, the processor-sharing
// resources or the scheduler must leave every simulated time, event count
// and fault counter exactly as it was. The pin is amd64-only: under
// GOARCH=386 the simulated times drift in their low bits, so the test
// holds on amd64 and CI runs no 386 build of this package.
func TestRunDigest(t *testing.T) {
	if got := digestRuns(t); got != runDigest {
		t.Errorf("run digest %s, want %s", got, runDigest)
	}
}
