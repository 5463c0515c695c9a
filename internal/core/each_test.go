package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/workload"
)

// allEstimators lists every estimator, in declaration order.
var allEstimators = []Estimator{EstimatorForkJoin, EstimatorTripathi, EstimatorPaperLiteral}

// figureConfigs returns the 19 points of the paper's §5.2 figures as
// internal/bench builds them: WordCount on cluster.Default with one
// reducer per node.
func figureConfigs(t *testing.T) map[string]Config {
	t.Helper()
	out := map[string]Config{}
	add := func(name string, nodes, jobs int, inputMB, block float64) {
		j, err := workload.NewJob(0, inputMB, block, nodes, workload.WordCount())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = Config{Spec: cluster.Default(nodes), Job: j, NumJobs: jobs}
	}
	for _, n := range []int{4, 6, 8} {
		add(fmt.Sprintf("fig10@%d", n), n, 1, 1024, 128)
		add(fmt.Sprintf("fig11@%d", n), n, 4, 1024, 128)
		add(fmt.Sprintf("fig12@%d", n), n, 1, 5*1024, 128)
		add(fmt.Sprintf("fig13@%d", n), n, 4, 5*1024, 128)
		add(fmt.Sprintf("fig15@%d", n), n, 1, 5*1024, 64)
	}
	for jobs := 1; jobs <= 4; jobs++ {
		add(fmt.Sprintf("fig14@%d", jobs), 4, jobs, 5*1024, 128)
	}
	return out
}

// samePrediction reports how got differs from want, bit for bit, or "".
func samePrediction(got, want Prediction) string {
	if math.Float64bits(got.ResponseTime) != math.Float64bits(want.ResponseTime) {
		return fmt.Sprintf("response %x, want %x", got.ResponseTime, want.ResponseTime)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.InnerIterations != want.InnerIterations ||
		got.MaxEvaluations != want.MaxEvaluations || got.MaxIntegrations != want.MaxIntegrations ||
		got.WarmStarted != want.WarmStarted {
		return fmt.Sprintf("counters %d/%v/%d/%d/%d, want %d/%v/%d/%d/%d",
			got.Iterations, got.Converged, got.InnerIterations, got.MaxEvaluations, got.MaxIntegrations,
			want.Iterations, want.Converged, want.InnerIterations, want.MaxEvaluations, want.MaxIntegrations)
	}
	if !reflect.DeepEqual(got.ClassResponse, want.ClassResponse) {
		return fmt.Sprintf("class responses %v, want %v", got.ClassResponse, want.ClassResponse)
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		return "timelines differ"
	}
	if got.Tree.String() != want.Tree.String() {
		return fmt.Sprintf("tree %s, want %s", got.Tree, want.Tree)
	}
	return ""
}

// checkEach runs cfg once through PredictEach with ests and once per
// estimator through Predict, and requires identical results.
func checkEach(t *testing.T, name string, cfg Config, ests []Estimator) []Prediction {
	t.Helper()
	joint, err := PredictEach(context.Background(), cfg, ests...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(joint) != len(ests) {
		t.Fatalf("%s: %d predictions for %d estimators", name, len(joint), len(ests))
	}
	for i, est := range ests {
		solo := cfg
		solo.Estimator = est
		want, err := Predict(solo)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, est, err)
		}
		if d := samePrediction(joint[i], want); d != "" {
			t.Errorf("%s/%s: joint solve differs from Predict: %s", name, est, d)
		}
	}
	return joint
}

// TestPredictEachMatchesPredict: one joint solve equals a solo Predict per
// estimator, bit for bit and counter for counter, because the estimator
// only decides when the shared outer loop stops.
func TestPredictEachMatchesPredict(t *testing.T) {
	t.Run("configs", testEachConfigs)
	t.Run("iteration cap", testEachIterationCap)
	t.Run("rejects", testEachRejects)
}

// Every figure point with and without outer acceleration, a fault plan and
// a 2-class cluster, all three estimators.
func testEachConfigs(t *testing.T) {
	figs := figureConfigs(t)
	if len(figs) != 19 {
		t.Fatalf("%d figure points, want 19", len(figs))
	}
	for name, cfg := range figs {
		for _, accel := range []bool{false, true} {
			cfg.AccelerateOuter = accel
			checkEach(t, fmt.Sprintf("%s accel=%v", name, accel), cfg, allEstimators)
		}
	}
	// Order of the list is the order of the results.
	checkEach(t, "fig13@4 reversed", figs["fig13@4"], []Estimator{EstimatorPaperLiteral, EstimatorTripathi, EstimatorForkJoin})

	job, err := workload.NewJob(0, 2048, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	checkEach(t, "faults", Config{Spec: reliableSpotSpec(), Job: job, NumJobs: 2,
		Faults: &fault.Plan{StragglerProb: 0.1, StragglerAlpha: 2}}, allEstimators)
	checkEach(t, "two-class", Config{Spec: twoClassSpec(2, 2), Job: job, NumJobs: 2}, allEstimators)
}

// A MaxIterations cap can stop the loop with one estimator converged and
// the others still iterating; each keeps what its solo run would report.
// At fig11@6 fork/join stops after 10 rounds, paper-literal after 12 and
// Tripathi after 23.
func testEachIterationCap(t *testing.T) {
	cfg := figureConfigs(t)["fig11@6"]
	cfg.MaxIterations = 11
	capped := checkEach(t, "fig11@6 capped", cfg, allEstimators)
	for i, want := range []struct {
		iters     int
		converged bool
	}{{10, true}, {11, false}, {11, false}} {
		if got := capped[i]; got.Iterations != want.iters || got.Converged != want.converged {
			t.Errorf("%s: %d rounds, converged=%v; want %d, %v",
				allEstimators[i], got.Iterations, got.Converged, want.iters, want.converged)
		}
	}
}

// Empty and duplicate lists, a canceled context and an invalid job fail.
func testEachRejects(t *testing.T) {
	cfg := figureConfigs(t)["fig10@4"]
	if _, err := PredictEach(context.Background(), cfg); err == nil {
		t.Error("empty estimator list accepted")
	}
	if _, err := PredictEach(context.Background(), cfg, EstimatorTripathi, EstimatorForkJoin, EstimatorTripathi); err == nil {
		t.Error("duplicate estimator accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PredictEach(ctx, cfg, EstimatorForkJoin, EstimatorTripathi); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
	bad := cfg
	bad.Job.InputMB = 0
	if _, err := PredictEach(context.Background(), bad, EstimatorForkJoin, EstimatorTripathi); err == nil {
		t.Error("invalid job accepted")
	}
}
