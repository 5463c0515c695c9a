package core

import (
	"math"
	"math/rand"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// warmTol is the chained-solve correctness contract: a PredictWarm
// prediction matches its cold twin within this relative tolerance.
const warmTol = 1e-6

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

// TestPredictWarmMatchesColdProperty is the chained solve's correctness
// contract: on randomized specs — flat and heterogeneous (K=2) — a
// PredictWarm prediction, made on a Predictor that just solved a
// neighbor, matches the cold one within 1e-6 relative.
func TestPredictWarmMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		job := randomJob(t, rng)
		numJobs := 1 + rng.Intn(3)
		est := []Estimator{EstimatorForkJoin, EstimatorTripathi, EstimatorPaperLiteral}[rng.Intn(3)]

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

		cold, err := Predict(target)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		p := NewPredictor()
		if _, err := p.PredictWarm(neighbor); err != nil {
			t.Fatalf("trial %d: neighbor: %v", trial, err)
		}
		warm, err := p.PredictWarm(target)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		// The contract covers the *result* (the job response time). The
		// per-class responses are internal outer-loop state that the ε-test
		// on the total deliberately leaves under-determined — cold runs with
		// different damping disagree on them too — so they are not compared.
		if rel := math.Abs(warm.ResponseTime-cold.ResponseTime) / cold.ResponseTime; rel > warmTol {
			t.Errorf("trial %d: warm %v vs cold %v (rel %.2e) job=%+v", trial,
				warm.ResponseTime, cold.ResponseTime, rel, target.Job)
		}
		if !warm.Converged {
			t.Errorf("trial %d: warm prediction did not converge", trial)
		}
	}
}

// A warm sweep over a node axis must spend materially fewer inner MVA
// sweeps than the same sweep cold in the contended regime — multi-job,
// multi-reducer predictions, where each of the cold outer loop's dozens of
// rounds re-solves the overlap fixed point from scratch. This is the warm
// path's performance premise; the numbers on the 16-point sweep are
// recorded by BenchmarkPredictBatch. (Uncontended configs
// converge in the 2-round minimum cold, so there is nothing to save there —
// warm start is about the expensive regime.)
func TestPredictWarmSavesIterations(t *testing.T) {
	job, err := workload.NewJob(0, 5*1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	coldInner, warmInner := 0, 0
	p := NewPredictor()
	for n := 2; n <= 17; n++ {
		cfg := Config{Spec: cluster.Default(n), Job: job, NumJobs: 4}
		cold, err := Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := p.PredictWarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(warm.ResponseTime-cold.ResponseTime) / cold.ResponseTime; rel > warmTol {
			t.Errorf("n=%d: warm %v vs cold %v (rel %.2e)", n, warm.ResponseTime, cold.ResponseTime, rel)
		}
		coldInner += cold.InnerIterations
		warmInner += warm.InnerIterations
	}
	t.Logf("16-point contended sweep: inner %d cold / %d warm", coldInner, warmInner)
	if warmInner*2 > coldInner {
		t.Errorf("warm sweep used %d inner sweeps, want <= half of cold's %d", warmInner, coldInner)
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

	// Chained accounting: a chained repeat of the same config spends
	// materially fewer inner MVA sweeps than the cold run.
	p := NewPredictor()
	if _, err := p.PredictWarm(cfg); err != nil {
		t.Fatal(err)
	}
	rerun, err := p.PredictWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.InnerIterations >= ok.InnerIterations {
		t.Errorf("chained rerun: InnerIterations=%d (cold %d)",
			rerun.InnerIterations, ok.InnerIterations)
	}
}

// warmAxisConfigs is a node axis of 4..9 nodes for each shape of the
// digest set — a flat cluster, a 2-class cluster and four concurrent jobs —
// plus one 4-node axis that changes the job and the history instead.
func warmAxisConfigs(t *testing.T) [][]Config {
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

// TestPredictWarmReproducible pins that PredictWarm is a function of its
// Config: on one Predictor, an axis walked upward, then downward, and then
// on a fresh Predictor gives the same bits every time — response,
// counters, cells and class responses. No earlier solve, of another node
// count, job or history, leaks into the answer.
func TestPredictWarmReproducible(t *testing.T) {
	for _, axis := range warmAxisConfigs(t) {
		p := NewPredictor()
		up := make([]Prediction, len(axis))
		for i, cfg := range axis {
			pred, err := p.PredictWarm(cfg)
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
			pred, err := p.PredictWarm(axis[i])
			if err != nil {
				t.Fatal(err)
			}
			check("downward", i, pred)
		}
		for i, cfg := range axis {
			pred, err := NewPredictor().PredictWarm(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("fresh Predictor", i, pred)
		}
	}
}

// TestWarmChainStaysLumped walks the 20 GB, 4-16-node sweep with the
// chained solve: a chained round starts from the previous round's lumped
// residence, so every config's final round solves as many rows as the cold
// solve's does, never falling back to one row per task.
func TestWarmChainStaysLumped(t *testing.T) {
	job, err := workload.NewJob(0, 20*1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor()
	for _, jobs := range []int{1, 4} {
		for n := 4; n <= 16; n++ {
			cfg := Config{Spec: cluster.Default(n), Job: job, NumJobs: jobs}
			warm, err := p.PredictWarm(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Predict(cfg)
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

// Convergence-knob validation: a negative epsilon is rejected on every
// path; a valid override is honored.
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
	if _, err := NewPredictor().PredictWarm(bad); err == nil {
		t.Errorf("warm config accepted bad tuning")
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
