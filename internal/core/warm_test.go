package core

import (
	"math"
	"math/rand"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// warmTol is the warm-start correctness contract: a warm-started prediction
// matches its cold-started twin within this relative tolerance.
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

// TestPredictWarmMatchesColdProperty is the tentpole's correctness
// contract: on randomized specs — flat and heterogeneous (K=2) — a
// prediction warm-started from a solved neighbor matches the cold-started
// one within 1e-6 relative, for the response time and every class response.
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
		if !warm.WarmStarted {
			t.Errorf("trial %d: second prediction was not warm-started", trial)
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

	// Warm accounting: a warm repeat of the same config reports WarmStarted
	// and materially fewer inner MVA sweeps than the cold run.
	p := NewPredictor()
	if _, err := p.PredictWarm(cfg); err != nil {
		t.Fatal(err)
	}
	rerun, err := p.PredictWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.WarmStarted || rerun.InnerIterations >= ok.InnerIterations {
		t.Errorf("warm rerun: WarmStarted=%v InnerIterations=%d (cold %d)",
			rerun.WarmStarted, rerun.InnerIterations, ok.InnerIterations)
	}
}

// The warm pool is keyed on the full job/hardware/history signature:
// predictions of a *different* job must never seed from it.
func TestPredictWarmSignatureIsolation(t *testing.T) {
	jobA, err := workload.NewJob(0, 1024, 128, 2, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := workload.NewJob(0, 1024, 128, 2, workload.TeraSort())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor()
	if _, err := p.PredictWarm(Config{Spec: cluster.Default(4), Job: jobA}); err != nil {
		t.Fatal(err)
	}
	pred, err := p.PredictWarm(Config{Spec: cluster.Default(4), Job: jobB})
	if err != nil {
		t.Fatal(err)
	}
	if pred.WarmStarted {
		t.Error("terasort prediction warm-started from a wordcount solution")
	}

	// A history-seeded config must not share entries with the static one.
	hist := map[timeline.Class]ClassStats{
		timeline.ClassMap: {MeanCPU: 10, MeanDisk: 2, MeanResponse: 13},
	}
	withHist, err := p.PredictWarm(Config{Spec: cluster.Default(4), Job: jobA, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if withHist.WarmStarted {
		t.Error("history-seeded prediction warm-started from the static solution")
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
