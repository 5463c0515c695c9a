package core

import (
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/workload"
)

// TestTripathiFigureSubsetBitExact pins the Tripathi estimator on the seven
// §5.2 figure points of the figures benchmark: WordCount on cluster.Default
// with one reducer per node. The response times are hex-exact values of the
// estimator with closed-form max moments computed once per P-node
// evaluation, so the memo must change no bit, and the outer and inner
// iteration counts must not move. MaxEvaluations and MaxIntegrations pin
// the work: integrations equal the distinct unordered operand pairs of each
// prediction. One Predictor serves every point in
// turn, so a memo entry surviving into the next prediction would show as a
// lower integration count. The pins are of the lumped solve (cells.go):
// members of a cell get bit-equal leaf responses, so their operand pairs
// repeat and the memo answers more of them. They were re-pinned when the
// inner MVA state was chained across outer rounds: every response moved by
// less than 3e-13 relative, the outer counts held, and the integration
// counts moved where the memo, keyed on exact bits, met other low bits.
func TestTripathiFigureSubsetBitExact(t *testing.T) {
	cases := []struct {
		name            string
		nodes, jobs     int
		inputMB, block  float64
		want            float64
		iters, inner    int
		evals, integral int
	}{
		{"fig10@4", 4, 1, 1024, 128, 0x1.24bcd3b1bcb19p+06, 2, 6, 26, 10},
		{"fig10@6", 6, 1, 1024, 128, 0x1.b57c9206fa874p+05, 19, 23, 342, 67},
		{"fig10@8", 8, 1, 1024, 128, 0x1.d4e5d426c097p+05, 2, 2, 42, 9},
		{"fig11@6", 6, 4, 1024, 128, 0x1.b90eef6469a6p+05, 23, 112, 414, 314},
		{"fig12@8", 8, 1, 5 * 1024, 128, 0x1.ff4ee1f0495d1p+06, 2, 8, 106, 12},
		{"fig13@4", 4, 4, 5 * 1024, 128, 0x1.81b843013b8b4p+08, 31, 239, 1395, 649},
		{"fig15@6", 6, 1, 5 * 1024, 64, 0x1.b2163f08fd3c7p+06, 13, 126, 1170, 491},
	}
	p := NewPredictor()
	for _, tc := range cases {
		job, err := workload.NewJob(0, tc.inputMB, tc.block, tc.nodes, workload.WordCount())
		if err != nil {
			t.Fatal(err)
		}
		pred, err := p.Predict(Config{Spec: cluster.Default(tc.nodes), Job: job, NumJobs: tc.jobs, Estimator: EstimatorTripathi})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pred.ResponseTime != tc.want {
			t.Errorf("%s: response %x, want %x", tc.name, pred.ResponseTime, tc.want)
		}
		if !pred.Converged || pred.Iterations != tc.iters || pred.InnerIterations != tc.inner {
			t.Errorf("%s: converged=%v after %d outer / %d inner iterations, want converged after %d / %d",
				tc.name, pred.Converged, pred.Iterations, pred.InnerIterations, tc.iters, tc.inner)
		}
		if pred.MaxEvaluations != tc.evals || pred.MaxIntegrations != tc.integral {
			t.Errorf("%s: %d P-node evaluations / %d max integrations, want %d / %d",
				tc.name, pred.MaxEvaluations, pred.MaxIntegrations, tc.evals, tc.integral)
		}
	}
}

// TestMaxCountersTripathiOnly checks that the max counters stay zero for the
// estimators that integrate nothing.
func TestMaxCountersTripathiOnly(t *testing.T) {
	job, err := workload.NewJob(0, 1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []Estimator{EstimatorForkJoin, EstimatorPaperLiteral} {
		pred, err := Predict(Config{Spec: cluster.Default(4), Job: job, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if pred.MaxEvaluations != 0 || pred.MaxIntegrations != 0 {
			t.Errorf("%v: max counters %d / %d, want 0 / 0", est, pred.MaxEvaluations, pred.MaxIntegrations)
		}
	}
}
