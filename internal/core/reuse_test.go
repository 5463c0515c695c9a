package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// roundLog records every round's timeline and tree, as the round hook
// sees them.
type roundLog struct {
	tls   []timeline.Timeline
	trees []string
}

// logRounds makes p record its rounds into a fresh log.
func logRounds(p *Predictor) *roundLog {
	l := &roundLog{}
	p.roundHook = func(tl *timeline.Timeline, tree *ptree.Node, _ int) {
		cp := *tl
		cp.Tasks = slices.Clone(tl.Tasks)
		l.tls = append(l.tls, cp)
		l.trees = append(l.trees, tree.String())
	}
	return l
}

// diffRounds reports the first round whose timeline or tree differs.
func diffRounds(got, want *roundLog) error {
	if len(got.tls) != len(want.tls) {
		return fmt.Errorf("%d rounds, want %d", len(got.tls), len(want.tls))
	}
	for r := range want.tls {
		if err := diffTimeline(&got.tls[r], &want.tls[r]); err != nil {
			return fmt.Errorf("round %d: %v", r+1, err)
		}
		if got.trees[r] != want.trees[r] {
			return fmt.Errorf("round %d: tree %s, want %s", r+1, got.trees[r], want.trees[r])
		}
	}
	return nil
}

// diffTimeline compares two timelines with every float by its bits.
func diffTimeline(got, want *timeline.Timeline) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Tasks) != len(want.Tasks) {
		return fmt.Errorf("%d tasks, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i, g := range got.Tasks {
		w := want.Tasks[i]
		if g.Class != w.Class || g.ID != w.ID || g.Node != w.Node || g.Slot != w.Slot || g.Lane != w.Lane ||
			!same(g.Start, w.Start) || !same(g.End, w.End) {
			return fmt.Errorf("task %d: %+v, want %+v", i, g, w)
		}
	}
	if !same(got.Makespan, want.Makespan) || !same(got.Border, want.Border) || !same(got.LastMapEnd, want.LastMapEnd) {
		return fmt.Errorf("makespan/border/last map end %v/%v/%v, want %v/%v/%v",
			got.Makespan, got.Border, got.LastMapEnd, want.Makespan, want.Border, want.LastMapEnd)
	}
	return nil
}

// diffPrediction compares two predictions bit for bit: answer, counters
// other than the round-reuse split, class responses and, when want has
// them (a Predict answer), the final timeline and tree.
func diffPrediction(got, want Prediction) error {
	if math.Float64bits(got.ResponseTime) != math.Float64bits(want.ResponseTime) ||
		got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.InnerIterations != want.InnerIterations || got.Cells != want.Cells ||
		got.MaxEvaluations != want.MaxEvaluations || got.MaxIntegrations != want.MaxIntegrations {
		return fmt.Errorf("prediction %+v, want %+v", got, want)
	}
	for cls, w := range want.ClassResponse {
		if g, ok := got.ClassResponse[cls]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s response %v, want %v", cls, g, w)
		}
	}
	if len(got.ClassResponse) != len(want.ClassResponse) {
		return fmt.Errorf("%d class responses, want %d", len(got.ClassResponse), len(want.ClassResponse))
	}
	if (got.Timeline == nil) != (want.Timeline == nil) || (got.Tree == nil) != (want.Tree == nil) {
		return fmt.Errorf("artifacts %v/%v, want %v/%v", got.Timeline != nil, got.Tree != nil, want.Timeline != nil, want.Tree != nil)
	}
	if want.Timeline == nil {
		return nil
	}
	if err := diffTimeline(got.Timeline, want.Timeline); err != nil {
		return fmt.Errorf("final timeline: %v", err)
	}
	if g, w := got.Tree.String(), want.Tree.String(); g != w {
		return fmt.Errorf("final tree %s, want %s", g, w)
	}
	return nil
}

// reuseShape is one randomized predict-miss-like shape.
type reuseShape struct {
	cfg Config
	// multiWave: more map tasks than the job's map lanes.
	multiWave bool
}

// randomReuseShape draws a flat or 2-class cluster of 2–12 nodes, one or
// four jobs and 0.2–8 GB of input, so the maps fit in one wave of the
// job's lanes or take several.
func randomReuseShape(t testing.TB, rng *rand.Rand) reuseShape {
	n := 2 + rng.Intn(11)
	jobs, r := 1, 1+rng.Intn(4)
	if rng.Intn(4) == 0 {
		jobs, r = 4, 4
	}
	job, err := workload.NewJob(0, 200+float64(rng.Intn(8000)), 128, r, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Default(n)
	if rng.Intn(2) == 0 {
		fast := 1 + rng.Intn(n-1)
		spec = twoClassSpec(fast, n-fast)
	}
	lanes := 0
	for _, c := range spec.ClassView() {
		lanes += c.Count * max(1, spec.MaxMapsOf(c)/jobs)
	}
	return reuseShape{cfg: Config{Spec: spec, Job: job, NumJobs: jobs}, multiWave: job.NumMaps() > lanes}
}

// reuseMatchesRebuild solves cfg alone and jointly over every estimator
// on reuse, a Predictor that reuses round structure (and may
// have solved other shapes before), and on a fresh one that rebuilds it
// every round, and fails t unless every round's timeline and tree and
// every Prediction are bit-identical. It returns the reused and the later
// (not first) rounds of the lone solve.
func reuseMatchesRebuild(t testing.TB, reuse *Predictor, cfg Config) (reused, later int) {
	t.Helper()
	for _, mode := range []string{"predict", "each"} {
		rebuild := &Predictor{rebuildRounds: true}
		got, want := logRounds(reuse), logRounds(rebuild)
		solve := func(p *Predictor) ([]Prediction, error) {
			if mode == "predict" {
				pred, err := p.Predict(cfg)
				return []Prediction{pred}, err
			}
			return p.PredictEach(context.Background(), cfg, allEstimators...)
		}
		g, err := solve(reuse)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		w, err := solve(rebuild)
		if err != nil {
			t.Fatalf("%s rebuilt: %v", mode, err)
		}
		if err := diffRounds(got, want); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for k := range w {
			if err := diffPrediction(g[k], w[k]); err != nil {
				t.Fatalf("%s %d: %v", mode, k, err)
			}
			if w[k].ReusedRounds != 0 || w[k].RebuiltRounds != w[k].Iterations {
				t.Fatalf("%s %d: rebuilding solve reports %d reused and %d rebuilt of %d rounds",
					mode, k, w[k].ReusedRounds, w[k].RebuiltRounds, w[k].Iterations)
			}
			if g[k].ReusedRounds+g[k].RebuiltRounds != g[k].Iterations || g[k].RebuiltRounds < 1 {
				t.Fatalf("%s %d: %d reused and %d rebuilt of %d rounds",
					mode, k, g[k].ReusedRounds, g[k].RebuiltRounds, g[k].Iterations)
			}
		}
		if mode == "predict" {
			reused, later = g[0].ReusedRounds, g[0].Iterations-1
		}
	}
	return reused, later
}

// Reusing a round's timeline placement, tree and demand rows changes no
// bit of any round or answer, over randomized predict-miss-like shapes
// solved alone and jointly. The shapes cover flat and 2-class
// clusters, one and four jobs, and first-wave-only and multi-wave maps.
func TestReuseMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	var reused, later, multi, twoClass, fourJobs int
	p := NewPredictor()
	for trial := 0; trial < trials; trial++ {
		s := randomReuseShape(t, rng)
		r, l := reuseMatchesRebuild(t, p, s.cfg)
		reused += r
		later += l
		if s.multiWave {
			multi++
		}
		if len(s.cfg.Spec.Classes) > 1 {
			twoClass++
		}
		if s.cfg.NumJobs == 4 {
			fourJobs++
		}
	}
	t.Logf("%d of %d later rounds reused", reused, later)
	// Shapes whose placement moves in a later round: the rounds after the
	// move must rebuild what the move changed.
	for _, s := range []struct {
		spec    cluster.Spec
		inputMB float64
		reduces int
	}{
		{twoClassSpec(1, 1), 928, 3},
		{twoClassSpec(1, 1), 1358, 4},
		{cluster.Default(3), 4402, 4},
	} {
		job, err := workload.NewJob(0, s.inputMB, 128, s.reduces, workload.WordCount())
		if err != nil {
			t.Fatal(err)
		}
		if r, l := reuseMatchesRebuild(t, p, Config{Spec: s.spec, Job: job, NumJobs: 1}); r == l {
			t.Errorf("%v MB on %d nodes: every later round reused; the placement no longer moves", s.inputMB, s.spec.TotalNodes())
		}
	}
	for name, n := range map[string]int{"multi-wave": multi, "first-wave-only": trials - multi,
		"2-class": twoClass, "flat": trials - twoClass, "4-job": fourJobs, "1-job": trials - fourJobs} {
		if n == 0 {
			t.Errorf("no %s shape drawn", name)
		}
	}
}
