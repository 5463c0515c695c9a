package mrsim

import (
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// classForm rewrites a flat spec as a single-class spec with the flat
// per-node fields zeroed, proving the simulator reads the class table.
func classForm(s cluster.Spec) cluster.Spec {
	s.Classes = []cluster.NodeClass{{
		Name:        "gen1",
		Count:       s.NumNodes,
		Capacity:    s.NodeCapacity,
		CPUs:        s.CPUPerNode,
		Disks:       s.DiskPerNode,
		DiskMBps:    s.DiskMBps,
		NetworkMBps: s.NetworkMBps,
	}}
	s.NumNodes = 0
	s.NodeCapacity = cluster.Resource{}
	s.CPUPerNode, s.DiskPerNode = 0, 0
	s.DiskMBps, s.NetworkMBps = 0, 0
	return s
}

// TestSimHomogeneousEquivalence pins the class-aware simulator to
// bit-identical outputs of the pre-refactor homogeneous implementation via
// hex-exact goldens captured before node classes existed, for both the flat
// spec and its single-class rewrite. The goldens are amd64 values: under
// GOARCH=386 the simulated times drift in their low bits, so the test
// holds on amd64 only (CI's 386 step does not run this package).
func TestSimHomogeneousEquivalence(t *testing.T) {
	cases := []struct {
		nodes, reduces, numJobs int
		inputMB                 float64
		pol                     yarn.Policy
		wantMean, wantMakespan  float64 // pre-refactor goldens, bit-exact
		wantEvents              int
	}{
		{4, 4, 1, 1024, yarn.PolicyFIFO, 0x1.d761f49df12aap+05, 0x1.d761f49df12aap+05, 139},
		{8, 2, 2, 512, yarn.PolicyFair, 0x1.d4bbf3983955ap+05, 0x1.da7642cccc38p+05, 101},
	}
	for _, tc := range cases {
		flat := cluster.Default(tc.nodes)
		jobs := make([]workload.Job, tc.numJobs)
		for i := range jobs {
			j, err := workload.NewJob(i, tc.inputMB, 128, tc.reduces, workload.WordCount())
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for name, spec := range map[string]cluster.Spec{"flat": flat, "single-class": classForm(flat)} {
			res, err := Run(Config{Spec: spec, Jobs: jobs, Seed: 42, Scheduler: tc.pol})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, tc.nodes, err)
			}
			if got := res.MeanResponse(); got != tc.wantMean {
				t.Errorf("%s n=%d r=%d j=%d: mean %x, want golden %x", name, tc.nodes, tc.reduces, tc.numJobs, got, tc.wantMean)
			}
			if res.Makespan != tc.wantMakespan {
				t.Errorf("%s n=%d: makespan %x, want golden %x", name, tc.nodes, res.Makespan, tc.wantMakespan)
			}
			if res.Events != tc.wantEvents {
				t.Errorf("%s n=%d: events %d, want %d", name, tc.nodes, res.Events, tc.wantEvents)
			}
		}
	}
}

// TestSimHeterogeneousSlowdown checks that the simulator actually prices
// class hardware: degrading half the cluster to a slower generation must
// increase the measured response, and per-node speeds must show up in task
// durations (a map on a slow node runs longer than its twin on a fast one).
func TestSimHeterogeneousSlowdown(t *testing.T) {
	job, err := workload.NewJob(0, 1024, 128, 2, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.Resource{MemoryMB: 32768, VCores: 32}
	mk := func(slowSpeed float64, slowDisk float64) cluster.Spec {
		spec := cluster.Default(0)
		spec.Classes = []cluster.NodeClass{
			{Name: "fast", Count: 2, Capacity: base, CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1},
			{Name: "slow", Count: 2, Capacity: base, CPUs: 6, Disks: 1, DiskMBps: slowDisk, NetworkMBps: 110, Speed: slowSpeed},
		}
		return spec
	}

	run := func(spec cluster.Spec) Result {
		res, err := Run(Config{Spec: spec, Jobs: []workload.Job{job}, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uniform := run(mk(1, 240))
	degraded := run(mk(0.25, 60))
	if degraded.MeanResponse() <= uniform.MeanResponse() {
		t.Errorf("slow class did not slow the job: degraded %v <= uniform %v",
			degraded.MeanResponse(), uniform.MeanResponse())
	}

	// Per-node pricing: among the degraded run's map records, the mean
	// duration on slow nodes (2, 3) must exceed the mean on fast nodes.
	var fastSum, slowSum float64
	var fastN, slowN int
	for _, rec := range degraded.Jobs[0].Tasks {
		if rec.Class != ClassMap {
			continue
		}
		if rec.Node < 2 {
			fastSum += rec.Duration()
			fastN++
		} else {
			slowSum += rec.Duration()
			slowN++
		}
	}
	if fastN == 0 || slowN == 0 {
		t.Fatalf("expected maps on both classes (fast %d, slow %d)", fastN, slowN)
	}
	if slowSum/float64(slowN) <= fastSum/float64(fastN) {
		t.Errorf("slow-node maps not slower: slow mean %v vs fast mean %v",
			slowSum/float64(slowN), fastSum/float64(fastN))
	}
}
