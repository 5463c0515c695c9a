package core

import (
	"math"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// classForm rewrites a flat spec as a single-class heterogeneous spec with
// the flat per-node fields zeroed — consumers must read the class table, not
// the legacy fields.
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

// TestPredictHomogeneousEquivalence pins the refactored (class-aware) model
// to bit-identical outputs of the pre-refactor homogeneous implementation:
// the golden values below are hex-exact response times captured from the
// code before node classes existed, re-captured when P-node max moments
// moved from numeric integration to closed form (the Tripathi row) and
// when every solve chained its inner MVA state across outer rounds (all
// rows, each moving by less than 1e-13 relative). Both the flat spec and
// its single-class rewrite must reproduce them to the last bit.
func TestPredictHomogeneousEquivalence(t *testing.T) {
	cases := []struct {
		nodes, reduces, numJobs int
		est                     Estimator
		inputMB                 float64
		want                    float64 // pre-refactor golden, bit-exact
	}{
		{4, 1, 1, EstimatorForkJoin, 1024, 0x1.234a00b4c990bp+07},
		{4, 4, 1, EstimatorForkJoin, 1024, 0x1.0d9d703cfd5acp+06},
		{8, 4, 3, EstimatorForkJoin, 2048, 0x1.866b43e01b25cp+06},
		{4, 4, 1, EstimatorTripathi, 1024, 0x1.24bcd3b1bcb19p+06},
		{6, 2, 2, EstimatorPaperLiteral, 512, 0x1.c34a3f681c2a1p+06},
	}
	for _, tc := range cases {
		flat := cluster.Default(tc.nodes)
		job, err := workload.NewJob(0, tc.inputMB, 128, tc.reduces, workload.WordCount())
		if err != nil {
			t.Fatal(err)
		}
		for name, spec := range map[string]cluster.Spec{"flat": flat, "single-class": classForm(flat)} {
			pred, err := Predict(Config{Spec: spec, Job: job, NumJobs: tc.numJobs, Estimator: tc.est})
			if err != nil {
				t.Fatalf("%s n=%d r=%d: %v", name, tc.nodes, tc.reduces, err)
			}
			if pred.ResponseTime != tc.want {
				t.Errorf("%s n=%d r=%d j=%d est=%v: response %x, want golden %x",
					name, tc.nodes, tc.reduces, tc.numJobs, tc.est, pred.ResponseTime, tc.want)
			}
		}
	}
}

// twoClassSpec is the 2-class evaluation cluster of the heterogeneous tests:
// fast nodes of the calibrated generation plus an older, slower generation
// with fewer cores and a slower disk.
func twoClassSpec(fast, slow int) cluster.Spec {
	spec := cluster.Default(0)
	spec.Classes = []cluster.NodeClass{
		{
			Name:        "fast",
			Count:       fast,
			Capacity:    cluster.Resource{MemoryMB: 32768, VCores: 32},
			CPUs:        6,
			Disks:       1,
			DiskMBps:    240,
			NetworkMBps: 110,
			Speed:       1,
		},
		{
			Name:        "slow",
			Count:       slow,
			Capacity:    cluster.Resource{MemoryMB: 16384, VCores: 16},
			CPUs:        4,
			Disks:       1,
			DiskMBps:    140,
			NetworkMBps: 110,
			Speed:       0.6,
		},
	}
	return spec
}

// TestPredictTwoClassAgreement validates the heterogeneous model against the
// discrete-event simulator on a 2-class cluster, at the same relative-error
// tolerance the homogeneous configuration meets in the same test. This is
// the paper's §5 validation loop opened onto the new scenario axis.
func TestPredictTwoClassAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed agreement in -short mode")
	}
	const tol = 0.35
	job, err := workload.NewJob(0, 1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec cluster.Spec
	}{
		{"homogeneous-4", cluster.Default(4)},
		{"two-class-2+2", twoClassSpec(2, 2)},
		{"two-class-3+1", twoClassSpec(3, 1)},
	} {
		pred, err := Predict(Config{Spec: tc.spec, Job: job, NumJobs: 1})
		if err != nil {
			t.Fatalf("%s: predict: %v", tc.name, err)
		}
		res, err := mrsim.RunMedianOfSeeds(mrsim.Config{
			Spec: tc.spec, Jobs: []workload.Job{job}, Seed: 7, Scheduler: yarn.PolicyFIFO,
		}, 3)
		if err != nil {
			t.Fatalf("%s: simulate: %v", tc.name, err)
		}
		sim := res.MeanResponse()
		relErr := math.Abs(pred.ResponseTime-sim) / sim
		t.Logf("%s: model %.1fs vs sim %.1fs (err %.1f%%)", tc.name, pred.ResponseTime, sim, 100*relErr)
		if relErr > tol {
			t.Errorf("%s: model %v vs sim %v: relative error %.2f exceeds %.2f",
				tc.name, pred.ResponseTime, sim, relErr, tol)
		}
	}
}

// TestPredictHeterogeneousSanity checks directional behavior of the 2-class
// model: upgrading part of the cluster must not slow the job down, and a mix
// must land between its all-slow and all-fast bookends.
// TestPartialHistoryKeepsClassScaling: a calibrated profile covering only
// some classes must not disable heterogeneous per-node scaling and class
// pricing for the classes it does not cover. The reduce side of a map-only
// history stays class-aware: the prediction must keep responding to the
// slow class's reduce-side hardware, exactly as it does with no history.
func TestPartialHistoryKeepsClassScaling(t *testing.T) {
	j, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	spec := twoClassSpec(4, 4)
	md := j.MapDemands(j.BlockSizeMB, spec.MeanDiskMBps())
	mapOnly := map[timeline.Class]ClassStats{
		timeline.ClassMap: {MeanCPU: md.CPU, MeanDisk: md.Disk, MeanResponse: md.CPU + md.Disk + md.Network},
	}

	// Degrading the slow class's disk must slow the reduce-side class
	// responses of a map-only-history prediction (class pricing still active
	// for the uncovered classes), while the history-pinned map class stays
	// put.
	degraded := twoClassSpec(4, 4)
	degraded.Classes[1].DiskMBps = 40
	base := predict(t, Config{Spec: spec, Job: j, History: mapOnly})
	slow := predict(t, Config{Spec: degraded, Job: j, History: mapOnly})
	for _, cls := range []timeline.Class{timeline.ClassShuffleSort, timeline.ClassMerge} {
		if slow.ClassResponse[cls] <= base.ClassResponse[cls] {
			t.Errorf("map-only history froze %s class pricing: degraded %v <= base %v",
				cls, slow.ClassResponse[cls], base.ClassResponse[cls])
		}
	}
	if slow.ClassResponse[timeline.ClassMap] != base.ClassResponse[timeline.ClassMap] {
		t.Errorf("history-pinned map class moved with disk bandwidth: %v vs %v",
			slow.ClassResponse[timeline.ClassMap], base.ClassResponse[timeline.ClassMap])
	}

	// A full history pins every class to its measured demands: the same
	// hardware degradation must leave the whole prediction untouched.
	full := map[timeline.Class]ClassStats{
		timeline.ClassMap:         mapOnly[timeline.ClassMap],
		timeline.ClassShuffleSort: {MeanCPU: 4, MeanDisk: 1, MeanNetwork: 2, MeanResponse: 7},
		timeline.ClassMerge:       {MeanCPU: 6, MeanDisk: 1, MeanResponse: 7},
	}
	fullBase := predict(t, Config{Spec: spec, Job: j, History: full})
	fullSlow := predict(t, Config{Spec: degraded, Job: j, History: full})
	if fullSlow.ResponseTime != fullBase.ResponseTime {
		t.Errorf("full history should be insensitive to bandwidth changes: %v vs %v",
			fullSlow.ResponseTime, fullBase.ResponseTime)
	}
}

func TestPredictHeterogeneousSanity(t *testing.T) {
	job, err := workload.NewJob(0, 2048, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	predict := func(spec cluster.Spec) float64 {
		p, err := Predict(Config{Spec: spec, Job: job, NumJobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p.ResponseTime
	}

	allSlow := twoClassSpec(1, 3) // minimal fast share
	mixed := twoClassSpec(2, 2)
	mostlyFast := twoClassSpec(3, 1)
	rtSlow, rtMix, rtFast := predict(allSlow), predict(mixed), predict(mostlyFast)
	if !(rtFast <= rtMix && rtMix <= rtSlow) {
		t.Errorf("upgrading nodes should not slow the job: 3+1=%v, 2+2=%v, 1+3=%v", rtFast, rtMix, rtSlow)
	}

	// A speed-doubled single class must beat the baseline class.
	base := classForm(cluster.Default(4))
	boosted := base
	boosted.Classes = []cluster.NodeClass{base.Classes[0]}
	boosted.Classes[0].Speed = 2
	if rb, r := predict(boosted), predict(base); rb >= r {
		t.Errorf("speed-2 class predicted %v, want < baseline %v", rb, r)
	}
}
