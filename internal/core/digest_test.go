package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// predictDigest is the SHA-256 of coldDigest's output, solved lumped (one
// MVA row per cell, cells.go). It pins every answer bit and every counter
// of the cold solves of a stratified config set; any change to the model's
// arithmetic or iteration order moves it. Refresh it only for a change that
// is meant to move predictions, and say so where the change is recorded.
const predictDigest = "cc89f6ecc88f832aa9c5d0a2d804667d4ae02a5884510a98deeacc7c060c9d44"

// elementwiseDigest is the cold digest of the element-wise model: every
// round solved with the identity partition, one MVA row per task. It is the
// digest the model had before cells were lumped, and must never move with
// a change to the lumping.
const elementwiseDigest = "2356fda3a0e9667a70093554a540423f282ae9e2dc21cbb72d572ef5ab5f88fa"

// warmDigest is the SHA-256 of warmDigestOf's output, solved lumped: the
// chained solve (PredictWarm) of the same config set and of a node-axis
// walk, all on one Predictor.
const warmDigest = "20b1c30797816123c0656f65b5e366248bd1a95711a1b7650f3ba00bcce5a01a"

// elementwiseWarmDigest is warmDigest for the element-wise model.
const elementwiseWarmDigest = "1c986a84f2f2cf7d09e7c0f3d4f683292a304b42f5fbd480569b82f7270b1c6c"

// digestConfigs is the stratified set: flat and 2-class clusters, one and
// four jobs, a fault plan, a partial and a full history, two node counts.
func digestConfigs(t *testing.T) []Config {
	t.Helper()
	small, err := workload.NewJob(0, 1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	large, err := workload.NewJob(0, 3*1024, 128, 6, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	md := small.MapDemands(small.BlockSizeMB, cluster.Default(4).DiskMBps)
	partial := map[timeline.Class]ClassStats{
		timeline.ClassMap: {MeanCPU: md.CPU * 1.5, MeanDisk: md.Disk, MeanNetwork: md.Network, CV: 0.2},
	}
	full := map[timeline.Class]ClassStats{
		timeline.ClassMap:         {CV: 0.3},
		timeline.ClassShuffleSort: {MeanResponse: 40, CV: 0.1},
		timeline.ClassMerge:       {CV: 0.05},
	}
	var out []Config
	for _, spec := range []cluster.Spec{cluster.Default(4), cluster.Default(5), twoClassSpec(2, 2), twoClassSpec(3, 2)} {
		for _, jobs := range []int{1, 4} {
			out = append(out,
				Config{Spec: spec, Job: small, NumJobs: jobs},
				Config{Spec: spec, Job: large, NumJobs: jobs},
				Config{Spec: spec, Job: small, NumJobs: jobs, History: partial},
			)
		}
	}
	out = append(out,
		Config{Spec: cluster.Default(10), Job: large, NumJobs: 4, History: full},
		Config{Spec: reliableSpotSpec(), Job: small, NumJobs: 2,
			Faults: &fault.Plan{StragglerProb: 0.1, StragglerAlpha: 2}},
		Config{Spec: reliableSpotSpec(), Job: large, NumJobs: 1,
			Faults: &fault.Plan{StragglerProb: 0.2, StragglerAlpha: 2.5, Speculation: true}},
	)
	return out
}

// digestPrediction writes one prediction's answer bits and counters.
func digestPrediction(h hash.Hash, p Prediction) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(math.Float64bits(p.ResponseTime))
	u64(uint64(p.Iterations))
	b(p.Converged)
	u64(uint64(p.InnerIterations))
	u64(uint64(p.MaxEvaluations))
	u64(uint64(p.MaxIntegrations))
	for _, cls := range []timeline.Class{timeline.ClassMap, timeline.ClassShuffleSort, timeline.ClassMerge} {
		r, ok := p.ClassResponse[cls]
		b(ok)
		u64(math.Float64bits(r))
	}
}

// coldDigest solves every digest config cold per estimator and through
// one PredictEach over all estimators, and hashes every result in that
// order. Every Predictor it uses solves element-wise when identity is set.
func coldDigest(t *testing.T, identity bool) string {
	t.Helper()
	h := sha256.New()
	for i, cfg := range digestConfigs(t) {
		for _, est := range allEstimators {
			c := cfg
			c.Estimator = est
			cold := Predictor{identityCells: identity}
			p, err := cold.Predict(c)
			if err != nil {
				t.Fatalf("config %d %s: %v", i, est, err)
			}
			digestPrediction(h, p)
		}
		joint := Predictor{identityCells: identity}
		each, err := joint.PredictEach(context.Background(), cfg, allEstimators...)
		if err != nil {
			t.Fatalf("config %d each: %v", i, err)
		}
		for _, p := range each {
			digestPrediction(h, p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warmDigestOf solves every digest config chained with the Tripathi
// estimator, then a planner-style node-axis walk, all on one Predictor, and
// hashes every result in that order. The Predictor solves element-wise when
// identity is set.
func warmDigestOf(t *testing.T, identity bool) string {
	t.Helper()
	h := sha256.New()
	warm := Predictor{identityCells: identity}
	for i, cfg := range digestConfigs(t) {
		c := cfg
		c.Estimator = EstimatorTripathi
		p, err := warm.PredictWarm(c)
		if err != nil {
			t.Fatalf("config %d warm: %v", i, err)
		}
		digestPrediction(h, p)
	}
	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	for nodes := 4; nodes <= 9; nodes++ {
		p, err := warm.PredictWarm(Config{Spec: cluster.Default(nodes), Job: job, NumJobs: 2})
		if err != nil {
			t.Fatalf("warm walk at %d nodes: %v", nodes, err)
		}
		digestPrediction(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictDigest pins the cold model's output bit for bit over the
// digest set: an optimization of the outer round must leave every answer
// and counter exactly as it was.
func TestPredictDigest(t *testing.T) {
	if got := coldDigest(t, false); got != predictDigest {
		t.Errorf("prediction digest %s, want %s", got, predictDigest)
	}
}

// TestPredictWarmDigest pins the chained solve bit for bit.
func TestPredictWarmDigest(t *testing.T) {
	if got := warmDigestOf(t, false); got != warmDigest {
		t.Errorf("chained digest %s, want %s", got, warmDigest)
	}
}

// TestElementwiseDigest pins the identity partition to the element-wise
// model's digest: solving one row per task through the lumped code path is
// the element-wise model, bit for bit.
func TestElementwiseDigest(t *testing.T) {
	if got := coldDigest(t, true); got != elementwiseDigest {
		t.Errorf("element-wise digest %s, want %s", got, elementwiseDigest)
	}
}

// TestElementwiseWarmDigest pins the chained solve on the identity
// partition.
func TestElementwiseWarmDigest(t *testing.T) {
	if got := warmDigestOf(t, true); got != elementwiseWarmDigest {
		t.Errorf("element-wise chained digest %s, want %s", got, elementwiseWarmDigest)
	}
}
