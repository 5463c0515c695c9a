package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// coldPredict is the oracle of the chained solve: cfg solved with every
// round's inner MVA started cold and run without Aitken acceleration, the
// model as it was before its inner state was chained across rounds.
func coldPredict(cfg Config) (Prediction, error) {
	p := Predictor{coldInner: true}
	return p.Predict(cfg)
}

// chainTol bounds the relative distance of Predict's response time from
// the oracle's, and chainClassTol the distance of each class response as
// a share of the oracle's response time: the inner fixed point is solved
// to an absolute 1e-10 either way, so a short class carries the same
// absolute noise as a long one. The measured maxima, over the randomized
// shapes of TestChainedMatchesCold, the figure points and 3,000 shapes
// drawn as FuzzChainedMatchesCold draws them, are 7.3e-12 on the response
// and 3.3e-12 on a class; each bound keeps a margin of more than ten.
const (
	chainTol      = 1e-10
	chainClassTol = 5e-11
)

// randomJob draws a random job over the built-in profiles.
func randomJob(t *testing.T, rng *rand.Rand) workload.Job {
	t.Helper()
	profiles := []workload.Profile{workload.WordCount(), workload.Grep(), workload.TeraSort()}
	inputMB := float64(256 * (1 + rng.Intn(12)))
	block := []float64{64, 128, 256}[rng.Intn(3)]
	reduces := 1 + rng.Intn(6)
	job, err := workload.NewJob(0, inputMB, block, reduces, profiles[rng.Intn(len(profiles))])
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// randomTwoClassSpec draws a 2-class cluster: a calibrated-generation class
// plus a randomized older one.
func randomTwoClassSpec(rng *rand.Rand, fast, slow int) cluster.Spec {
	spec := cluster.Default(0)
	spec.Classes = []cluster.NodeClass{
		{
			Name:     "fast",
			Count:    fast,
			Capacity: cluster.Resource{MemoryMB: 32768, VCores: 32},
			CPUs:     6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1,
		},
		{
			Name:     "slow",
			Count:    slow,
			Capacity: cluster.Resource{MemoryMB: 16384, VCores: 16},
			CPUs:     4, Disks: 1,
			DiskMBps:    100 + 80*rng.Float64(),
			NetworkMBps: 110,
			Speed:       0.4 + 0.4*rng.Float64(),
		},
	}
	return spec
}

// chainDiff is how far a chained solve lies from the oracle's: the
// relative response distance, the worst class response distance as a
// share of the response time, and the tolerated departure (see
// chainedMatchesCold).
type chainDiff struct {
	resp, class float64
	flipped     bool
}

// chainedMatchesCold solves cfg with Predict on p (which may have solved
// other configs before) and with the oracle, and fails t unless the outer
// round counts, convergence and final-round cells are equal and the
// response and class responses lie within chainTol and chainClassTol.
//
// One departure is tolerated and reported. The outer loop stops on an
// absolute ε-test of the total, so where a round's change sits within
// inner-tolerance noise of ε the two solves may stop one round apart
// (flipped): both are then re-solved capped at the earlier stop, where
// their trajectories must still agree.
func chainedMatchesCold(t testing.TB, p *Predictor, cfg Config) chainDiff {
	t.Helper()
	solve := func(cfg Config) (got, want Prediction) {
		t.Helper()
		got, err := p.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err = coldPredict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	var d chainDiff
	got, want := solve(cfg)
	if g, w := got.Iterations, want.Iterations; g != w && (g-w == 1 || w-g == 1) {
		d.flipped = true
		cfg.MaxIterations = min(g, w)
		got, want = solve(cfg)
	}
	if got.Iterations != want.Iterations || (got.Converged != want.Converged && !d.flipped) ||
		got.Cells != want.Cells {
		t.Fatalf("%d rounds (converged %v), %d cells; oracle %d (%v), %d",
			got.Iterations, got.Converged, got.Cells, want.Iterations, want.Converged, want.Cells)
	}
	d.resp = relDiff(got.ResponseTime, want.ResponseTime)
	if d.resp > chainTol {
		t.Fatalf("response %v, oracle %v (relative %.3g)", got.ResponseTime, want.ResponseTime, d.resp)
	}
	for cls, w := range want.ClassResponse {
		g, ok := got.ClassResponse[cls]
		dc := math.Abs(g-w) / want.ResponseTime
		if !ok || dc > chainClassTol {
			t.Fatalf("%v response %v, oracle %v (%.3g of the job response)", cls, g, w, dc)
		}
		d.class = math.Max(d.class, dc)
	}
	return d
}

// TestChainedMatchesCold is the chained solve's soundness check: on
// randomized specs — flat and heterogeneous (K=2), one to three jobs,
// every estimator — Predict on a Predictor that just solved a neighbor
// config agrees with the cold-inner oracle within chainTol, and on the
// paper's figure points and the digest set it does so with no tolerated
// departure: every outer count and final-round cell count is the oracle's.
func TestChainedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	var worst chainDiff
	var departures int
	p := NewPredictor()
	check := func(name string, cfg Config, strict bool) {
		t.Helper()
		t.Run(name, func(t *testing.T) {
			d := chainedMatchesCold(t, p, cfg)
			if d.flipped {
				departures++
				if strict {
					t.Error("stopped a round apart")
				}
			}
			worst.resp, worst.class = math.Max(worst.resp, d.resp), math.Max(worst.class, d.class)
		})
	}
	for trial := 0; trial < trials; trial++ {
		job := randomJob(t, rng)
		numJobs := 1 + rng.Intn(3)
		est := allEstimators[rng.Intn(len(allEstimators))]

		var neighbor, target Config
		if trial%2 == 0 {
			nodes := 2 + rng.Intn(12)
			delta := 1 + rng.Intn(3)
			neighbor = Config{Spec: cluster.Default(nodes), Job: job, NumJobs: numJobs, Estimator: est}
			target = Config{Spec: cluster.Default(nodes + delta), Job: job, NumJobs: numJobs, Estimator: est}
		} else {
			fast, slow := 2+rng.Intn(5), 1+rng.Intn(4)
			spec := randomTwoClassSpec(rng, fast, slow)
			grown := spec
			grown.Classes = append([]cluster.NodeClass(nil), spec.Classes...)
			grown.Classes[rng.Intn(2)].Count += 1 + rng.Intn(2)
			neighbor = Config{Spec: spec, Job: job, NumJobs: numJobs, Estimator: est}
			target = Config{Spec: grown, Job: job, NumJobs: numJobs, Estimator: est}
		}
		if _, err := p.Predict(neighbor); err != nil {
			t.Fatalf("trial %d: neighbor: %v", trial, err)
		}
		check(fmt.Sprintf("trial %d", trial), target, false)
	}
	if !testing.Short() {
		for name, cfg := range figureConfigs(t) {
			for _, est := range allEstimators {
				cfg.Estimator = est
				check(fmt.Sprintf("%s/%s", name, est), cfg, true)
			}
		}
		for i, cfg := range digestConfigs(t) {
			check(fmt.Sprintf("digest %d", i), cfg, true)
		}
	}
	t.Logf("worst distance from the oracle: response %.3g relative, class response %.3g of the response; %d tolerated departures",
		worst.resp, worst.class, departures)
}

// FuzzChainedMatchesCold draws a shape — flat or 2-class, 1 or 4 jobs,
// with or without a fault plan, any estimator — and requires Predict to
// match the cold-inner oracle (see chainedMatchesCold).
func FuzzChainedMatchesCold(f *testing.F) {
	f.Add(uint8(4), uint16(1024), uint8(4), uint8(0), false, false, false)
	f.Add(uint8(6), uint16(5*1024), uint8(1), uint8(1), false, true, false)
	f.Add(uint8(5), uint16(700), uint8(2), uint8(2), true, false, true)
	f.Add(uint8(3), uint16(3000), uint8(3), uint8(1), true, true, true)
	f.Fuzz(func(t *testing.T, nodes uint8, inputMB uint16, reduces, est uint8, twoClass, fourJobs, faults bool) {
		cfg, ok := fuzzShape(nodes, inputMB, reduces, twoClass, fourJobs, faults)
		if !ok {
			t.Skip()
		}
		cfg.Estimator = allEstimators[int(est)%len(allEstimators)]
		chainedMatchesCold(t, NewPredictor(), cfg)
	})
}

// A chained sweep over a node axis must spend materially fewer inner MVA
// sweeps than the same sweep through the cold-inner oracle in the
// contended regime — multi-job, multi-reducer predictions, where each of
// the oracle's dozens of outer rounds re-solves the overlap fixed point
// from scratch. This is the chained solve's performance premise; the
// numbers on the 16-point sweep are recorded by BenchmarkPredictSweep.
// (Uncontended configs converge in the 2-round minimum, so there is
// nothing to save there — chaining is about the expensive regime.)
func TestPredictWarmSavesIterations(t *testing.T) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	coldInner, warmInner := 0, 0
	p := NewPredictor()
	for n := 2; n <= 17; n++ {
		cfg := Config{Spec: cluster.Default(n), Job: job, NumJobs: 4}
		cold, err := coldPredict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := p.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rel := relDiff(warm.ResponseTime, cold.ResponseTime); rel > chainTol {
			t.Errorf("n=%d: chained %v vs cold %v (rel %.2e)", n, warm.ResponseTime, cold.ResponseTime, rel)
		}
		coldInner += cold.InnerIterations
		warmInner += warm.InnerIterations
	}
	t.Logf("16-point contended sweep: inner %d cold / %d chained", coldInner, warmInner)
	if warmInner*2 > coldInner {
		t.Errorf("chained sweep used %d inner sweeps, want <= half of cold's %d", warmInner, coldInner)
	}
}

// Converged and maxed-out predictions must be distinguishable from their
// iteration stats alone, and both loops' counters must be populated.
func TestIterationAccounting(t *testing.T) {
	job, err := workload.NewJob(0, 4096, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: cluster.Default(4), Job: job, NumJobs: 4}

	ok, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Converged {
		t.Fatal("reference prediction did not converge")
	}
	if ok.Iterations <= 0 || ok.Iterations >= DefaultMaxIterations {
		t.Errorf("converged Iterations = %d", ok.Iterations)
	}
	if ok.InnerIterations < ok.Iterations {
		t.Errorf("InnerIterations %d < outer %d: inner sweeps unaccounted", ok.InnerIterations, ok.Iterations)
	}

	// Starve the outer loop: the result must be marked unconverged with the
	// cap as its iteration count — distinguishable from the converged run.
	capped := cfg
	capped.MaxIterations = 2
	starved, err := Predict(capped)
	if err != nil {
		t.Fatal(err)
	}
	if starved.Converged {
		t.Error("2-iteration cap reported convergence")
	}
	if starved.Iterations != 2 {
		t.Errorf("starved Iterations = %d, want 2", starved.Iterations)
	}
	if starved.InnerIterations <= 0 {
		t.Error("starved run reported no inner sweeps")
	}

	// Chained accounting: the chained solve spends materially fewer inner
	// MVA sweeps than the cold-inner oracle over the same outer rounds.
	cold, err := coldPredict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations != ok.Iterations || ok.InnerIterations >= cold.InnerIterations {
		t.Errorf("chained: %d rounds, InnerIterations=%d; cold oracle %d rounds, %d",
			ok.Iterations, ok.InnerIterations, cold.Iterations, cold.InnerIterations)
	}
}

// axisConfigs is a node axis of 4..9 nodes for each shape of the
// digest set — a flat cluster, a 2-class cluster and four concurrent jobs —
// plus one 4-node axis that changes the job and the history instead.
func axisConfigs(t *testing.T) [][]Config {
	t.Helper()
	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	var flat, twoClass, fourJobs []Config
	for n := 4; n <= 9; n++ {
		flat = append(flat, Config{Spec: cluster.Default(n), Job: job})
		twoClass = append(twoClass, Config{Spec: twoClassSpec(2, n-2), Job: job})
		fourJobs = append(fourJobs, Config{Spec: cluster.Default(n), Job: job, NumJobs: 4})
	}
	wc, err := workload.NewJob(0, 1024, 128, 2, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := workload.NewJob(0, 1024, 128, 2, workload.TeraSort())
	if err != nil {
		t.Fatal(err)
	}
	hist := map[timeline.Class]ClassStats{
		timeline.ClassMap: {MeanCPU: 10, MeanDisk: 2, MeanResponse: 13},
	}
	jobs := []Config{
		{Spec: cluster.Default(4), Job: wc},
		{Spec: cluster.Default(4), Job: ts},
		{Spec: cluster.Default(4), Job: wc, History: hist},
	}
	return [][]Config{flat, twoClass, fourJobs, jobs}
}

// TestPredictWarmReproducible pins that Predict is a function of its
// Config, although each solve chains (warms) its inner state across
// rounds: on one Predictor, an axis walked upward, then downward, and then
// on a fresh Predictor gives the same bits every time — response,
// counters, cells, class responses, final timeline and tree. No earlier
// solve, of another node count, job or history, leaks into the answer.
func TestPredictWarmReproducible(t *testing.T) {
	for _, axis := range axisConfigs(t) {
		p := NewPredictor()
		up := make([]Prediction, len(axis))
		for i, cfg := range axis {
			pred, err := p.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			up[i] = pred
		}
		check := func(walk string, i int, got Prediction) {
			t.Helper()
			if d := samePrediction(got, up[i]); d != "" {
				t.Errorf("%s, %s job, %d nodes, NumJobs %d, history %v: %s", walk, axis[i].Job.Profile.Name,
					axis[i].Spec.TotalNodes(), axis[i].NumJobs, axis[i].History != nil, d)
			}
		}
		for i := len(axis) - 1; i >= 0; i-- {
			pred, err := p.Predict(axis[i])
			if err != nil {
				t.Fatal(err)
			}
			check("downward", i, pred)
		}
		for i, cfg := range axis {
			pred, err := NewPredictor().Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("fresh Predictor", i, pred)
		}
	}
}

// TestWarmChainStaysLumped walks the 20 GB, 4-16-node sweep: a chained
// round starts from the previous round's lumped residence, so every
// config's final round solves as many rows as the cold-inner oracle's
// does, never falling back to one row per task.
func TestWarmChainStaysLumped(t *testing.T) {
	job, err := workload.NewJob(0, 20*1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor()
	for _, jobs := range []int{1, 4} {
		for n := 4; n <= 16; n++ {
			cfg := Config{Spec: cluster.Default(n), Job: job, NumJobs: jobs}
			warm, err := p.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldPredict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Cells != cold.Cells {
				t.Errorf("%d nodes, %d jobs: chained final round solved %d rows, cold %d",
					n, jobs, warm.Cells, cold.Cells)
			}
		}
	}
}

// Convergence-knob validation: a negative epsilon is rejected; a valid
// override is honored.
func TestConfigTuningValidation(t *testing.T) {
	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Spec: cluster.Default(2), Job: job, NumJobs: 3}

	bad := base
	bad.Epsilon = -1e-9
	if _, err := Predict(bad); err == nil {
		t.Errorf("config %+v accepted", bad)
	}

	// A looser epsilon stops earlier.
	def, err := Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	loose := base
	loose.Epsilon = 1e-2
	lo, err := Predict(loose)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Iterations >= def.Iterations {
		t.Errorf("epsilon 1e-2 used %d iterations, default %d", lo.Iterations, def.Iterations)
	}
}
