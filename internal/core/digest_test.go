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

// predictDigest is the SHA-256 of digestOf's output, solved lumped (one
// MVA row per cell, cells.go). It pins every answer bit and every counter
// of the solves of a stratified config set and of a node-axis walk; any
// change to the model's arithmetic or iteration order moves it. Refresh it
// only for a change that is meant to move predictions, and say so where
// the change is recorded.
const predictDigest = "9943926c915dffcbb01fd0d4eb75743be63500751505fdb8661cc42dd57bf8b8"

// elementwiseDigest is predictDigest for the element-wise model: every
// round solved with the identity partition, one MVA row per task. It must
// never move with a change to the lumping.
const elementwiseDigest = "fe809a76f2fb39a3e07cb6b35bf8f00dcdee1800b89e85d0429470da0c064f24"

// coldDigest and elementwiseColdDigest are the digests, without the axis
// walk, of the model before its inner MVA state was chained across outer
// rounds, lumped and element-wise. The cold-inner oracle (coldPredict)
// must reproduce them: it is that model, bit for bit.
const (
	coldDigest            = "cc89f6ecc88f832aa9c5d0a2d804667d4ae02a5884510a98deeacc7c060c9d44"
	elementwiseColdDigest = "2356fda3a0e9667a70093554a540423f282ae9e2dc21cbb72d572ef5ab5f88fa"
)

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

// digestOf solves every digest config per estimator and through one
// PredictEach over all estimators, then, when walk is set, walks a node
// axis on one Predictor, as the planner does, and hashes every result in
// that order. Every Predictor it uses is a copy of seam, the zero
// Predictor with test seams set.
func digestOf(t *testing.T, seam Predictor, walk bool) string {
	t.Helper()
	return digestWith(t, func() *Predictor { p := seam; return &p }, walk)
}

// sharedDigestOf is digestOf with every solve on one Predictor, a copy of
// seam, so each config is solved after all the ones before it.
func sharedDigestOf(t *testing.T, seam Predictor, walk bool) string {
	t.Helper()
	return digestWith(t, func() *Predictor { return &seam }, walk)
}

// digestWith is digestOf with the Predictor of each solve, and of the
// whole axis walk, taken from next.
func digestWith(t *testing.T, next func() *Predictor, walk bool) string {
	t.Helper()
	h := sha256.New()
	for i, cfg := range digestConfigs(t) {
		for _, est := range allEstimators {
			c := cfg
			c.Estimator = est
			p, err := next().Predict(c)
			if err != nil {
				t.Fatalf("config %d %s: %v", i, est, err)
			}
			digestPrediction(h, p)
		}
		each, err := next().PredictEach(context.Background(), cfg, allEstimators...)
		if err != nil {
			t.Fatalf("config %d each: %v", i, err)
		}
		for _, p := range each {
			digestPrediction(h, p)
		}
	}
	if !walk {
		return hex.EncodeToString(h.Sum(nil))
	}
	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	axis := next()
	for nodes := 4; nodes <= 9; nodes++ {
		p, err := axis.Predict(Config{Spec: cluster.Default(nodes), Job: job, NumJobs: 2})
		if err != nil {
			t.Fatalf("walk at %d nodes: %v", nodes, err)
		}
		digestPrediction(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictDigest pins the model's output bit for bit over the digest
// set: an optimization of the outer round must leave every answer and
// counter exactly as it was.
func TestPredictDigest(t *testing.T) {
	if got := digestOf(t, Predictor{}, true); got != predictDigest {
		t.Errorf("prediction digest %s, want %s", got, predictDigest)
	}
}

// TestPredictWarmDigest pins that one Predictor, reused across the whole
// digest set as a pooled Predictor is across requests, gives the digest
// of fresh Predictors bit for bit: the chained inner state of one solve
// never reaches the next.
func TestPredictWarmDigest(t *testing.T) {
	if got := sharedDigestOf(t, Predictor{}, true); got != predictDigest {
		t.Errorf("one-Predictor digest %s, want %s", got, predictDigest)
	}
}

// TestElementwiseDigest pins the identity partition to the element-wise
// model's digest: solving one row per task through the lumped code path is
// the element-wise model, bit for bit.
func TestElementwiseDigest(t *testing.T) {
	if got := digestOf(t, Predictor{identityCells: true}, true); got != elementwiseDigest {
		t.Errorf("element-wise digest %s, want %s", got, elementwiseDigest)
	}
}

// TestElementwiseWarmDigest is TestPredictWarmDigest on the identity
// partition.
func TestElementwiseWarmDigest(t *testing.T) {
	if got := sharedDigestOf(t, Predictor{identityCells: true}, true); got != elementwiseDigest {
		t.Errorf("element-wise one-Predictor digest %s, want %s", got, elementwiseDigest)
	}
}

// TestColdOracleDigest pins the chained solve's oracle to the model it
// replaced: solved with every round's inner MVA started cold, the digest
// set gives the pre-chaining digests bit for bit, lumped and element-wise.
func TestColdOracleDigest(t *testing.T) {
	if got := digestOf(t, Predictor{coldInner: true}, false); got != coldDigest {
		t.Errorf("cold-inner digest %s, want %s", got, coldDigest)
	}
	if got := digestOf(t, Predictor{identityCells: true, coldInner: true}, false); got != elementwiseColdDigest {
		t.Errorf("element-wise cold-inner digest %s, want %s", got, elementwiseColdDigest)
	}
}
