package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

// lumpTol bounds how far a lumped answer (the job response time) may
// drift from the element-wise solve it replaces: the two are equal in real
// arithmetic and differ only in the order of the additions inside the
// weights and the sweeps.
const lumpTol = 1e-12

// classTol bounds the drift of the per-class responses, the outer
// iteration's state, which is not served. The outer rounds amplify
// rounding: on 3 two-class nodes with 4 jobs and 1,047 MB the Tripathi
// answer moved 5.4e-13 while its shuffle-sort class response moved
// 1.43e-12 (testdata/fuzz).
const classTol = 1e-10

// checkEquitable reports the first way the round's cells fail to be
// bit-permutation-equitable: every member of a cell must have its first
// member's demand row, bit for bit, and on each of its three weight rows,
// for every cell h, the same multiset of weight bits over the tasks of h.
// The weights are the element-wise ones (identity partition) of the round.
func checkEquitable(p *Predictor, tl *timeline.Timeline, otherJobs int) error {
	n := len(tl.Tasks)
	var ident cells
	ident.identity(n)
	w := p.overlapFactors(tl, otherJobs, &ident, nil)
	of, rep := p.cells.of, p.cells.rep
	for g, r := range rep {
		if of[r] != int32(g) || (g > 0 && r <= rep[g-1]) {
			return fmt.Errorf("cell %d: first member %d out of order", g, r)
		}
	}
	type entry struct {
		cell int32
		bits uint64
	}
	rowOf := func(c, i int) []entry {
		row := w[(c*n+i)*n : (c*n+i+1)*n]
		out := make([]entry, n)
		for j, v := range row {
			out[j] = entry{of[j], math.Float64bits(v)}
		}
		slices.SortFunc(out, func(a, b entry) int {
			if a.cell != b.cell {
				return int(a.cell - b.cell)
			}
			switch {
			case a.bits < b.bits:
				return -1
			case a.bits > b.bits:
				return 1
			}
			return 0
		})
		return out
	}
	hw := &p.hw
	for i, g := range of {
		r := int(rep[g])
		if i == r {
			continue
		}
		if !slices.Equal(p.demands[i].Demands, p.demands[r].Demands) {
			return fmt.Errorf("task %d: demands %v, first member %d has %v", i, p.demands[i].Demands, r, p.demands[r].Demands)
		}
		ci := hw.classOf[tl.Tasks[i].Node]
		for _, c := range []int{hw.cpuCenter(ci), hw.diskCenter(ci), hw.netCenter()} {
			if !slices.Equal(rowOf(c, i), rowOf(c, r)) {
				return fmt.Errorf("task %d (%+v) and its first member %d (%+v): center %d weights differ per cell",
					i, tl.Tasks[i], r, tl.Tasks[r], c)
			}
		}
	}
	return nil
}

// lumpedMatchesElementwise solves cfg with every estimator, once lumped —
// checking that every round's cells are equitable — and once element-wise,
// fails the test when the iteration counts differ or the answers differ
// beyond lumpTol (class responses beyond classTol), and returns the summed
// cell and task counts of the lumped rounds. PredictEach answers carry no
// timeline, so the task count each answer's Cells is checked against is
// read from the rounds (every round places the same tasks).
func lumpedMatchesElementwise(t testing.TB, cfg Config) (cellRows, taskRows int) {
	t.Helper()
	var lumped Predictor
	var hookErr error
	tasks := 0
	lumped.roundHook = func(tl *timeline.Timeline, _ *ptree.Node, otherJobs int) {
		cellRows += lumped.cells.count()
		taskRows += len(tl.Tasks)
		tasks = len(tl.Tasks)
		if hookErr == nil {
			hookErr = checkEquitable(&lumped, tl, otherJobs)
		}
	}
	got, err := lumped.PredictEach(context.Background(), cfg, allEstimators...)
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	elem := Predictor{identityCells: true}
	want, err := elem.PredictEach(context.Background(), cfg, allEstimators...)
	if err != nil {
		t.Fatal(err)
	}
	for k, est := range allEstimators {
		g, w := got[k], want[k]
		if g.Iterations != w.Iterations || g.Converged != w.Converged {
			t.Fatalf("%v: %d iterations (converged %v), element-wise %d (%v)", est, g.Iterations, g.Converged, w.Iterations, w.Converged)
		}
		if w.Cells != tasks {
			t.Fatalf("%v: element-wise solve reports %d cells for %d tasks", est, w.Cells, tasks)
		}
		if g.Cells < 1 || g.Cells > tasks {
			t.Fatalf("%v: %d cells for %d tasks", est, g.Cells, tasks)
		}
		if d := relDiff(g.ResponseTime, w.ResponseTime); d > lumpTol {
			t.Fatalf("%v: lumped %v, element-wise %v (relative %.3g)", est, g.ResponseTime, w.ResponseTime, d)
		}
		for cls, r := range w.ClassResponse {
			if d := relDiff(g.ClassResponse[cls], r); d > classTol {
				t.Fatalf("%v: %v response lumped %v, element-wise %v (relative %.3g)", est, cls, g.ClassResponse[cls], r, d)
			}
		}
	}
	return cellRows, taskRows
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestLumpedMatchesElementwise runs the lumped solve against the
// element-wise one on the figure points, the digest set and a job whose
// last map split is short, and checks that lumping actually shrinks the
// solve there.
func TestLumpedMatchesElementwise(t *testing.T) {
	var cellRows, taskRows int
	cfgs := digestConfigs(t)
	for _, cfg := range figureConfigs(t) {
		cfgs = append(cfgs, cfg)
	}
	short, err := workload.NewJob(0, 1000, 128, 3, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, Config{Spec: cluster.Default(4), Job: short, NumJobs: 2})
	for _, cfg := range cfgs {
		g, n := lumpedMatchesElementwise(t, cfg)
		cellRows += g
		taskRows += n
	}
	if ratio := float64(cellRows) / float64(taskRows); ratio > 0.5 {
		t.Errorf("lumped rounds solve %.3f rows per task, want at most 0.5", ratio)
	}
}

// TestLumpedWarmChain walks a node axis with the chained solve, lumped and
// element-wise: the chained inner state must give the same answers within
// lumpTol.
func TestLumpedWarmChain(t *testing.T) {
	job, err := workload.NewJob(0, 3*1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	lumped, elem := NewPredictor(), &Predictor{identityCells: true}
	for nodes := 4; nodes <= 10; nodes++ {
		for _, jobs := range []int{1, 3} {
			cfg := Config{Spec: cluster.Default(nodes), Job: job, NumJobs: jobs}
			g, err := lumped.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := elem.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.Iterations != w.Iterations {
				t.Fatalf("%d nodes, %d jobs: lumped %d rounds, element-wise %d",
					nodes, jobs, g.Iterations, w.Iterations)
			}
			if d := relDiff(g.ResponseTime, w.ResponseTime); d > lumpTol {
				t.Fatalf("%d nodes, %d jobs: lumped %v, element-wise %v (relative %.3g)", nodes, jobs, g.ResponseTime, w.ResponseTime, d)
			}
		}
	}
}

// FuzzLumpedMatchesElementwise draws a shape — flat or 2-class, 1 or 4
// jobs, with or without a fault plan — and requires every lumped round's
// cells to be bit-permutation-equitable and the lumped answers to match the
// element-wise ones within lumpTol (class responses within classTol).
func FuzzLumpedMatchesElementwise(f *testing.F) {
	f.Add(uint8(4), uint16(1024), uint8(4), false, false, false)
	f.Add(uint8(6), uint16(5*1024), uint8(1), false, true, false)
	f.Add(uint8(5), uint16(700), uint8(2), true, false, true)
	f.Add(uint8(3), uint16(3000), uint8(3), true, true, true)
	f.Fuzz(func(t *testing.T, nodes uint8, inputMB uint16, reduces uint8, twoClass, fourJobs, faults bool) {
		cfg, ok := fuzzShape(nodes, inputMB, reduces, twoClass, fourJobs, faults)
		if !ok {
			t.Skip()
		}
		lumpedMatchesElementwise(t, cfg)
	})
}

// fuzzShape maps fuzz inputs to a model config: 2–12 nodes, flat or
// 2-class, 128 MB to 6 GB of WordCount input, 1–4 reducers (4 with four
// jobs), with or without a straggler plan. ok is false when the job is
// invalid.
func fuzzShape(nodes uint8, inputMB uint16, reduces uint8, twoClass, fourJobs, faults bool) (cfg Config, ok bool) {
	n := 2 + int(nodes)%11
	in := 128 + float64(inputMB%6144)
	r := 1 + int(reduces)%4
	jobs := 1
	if fourJobs {
		jobs, r = 4, 4
	}
	job, err := workload.NewJob(0, in, 128, r, workload.WordCount())
	if err != nil {
		return Config{}, false
	}
	cfg = Config{Spec: cluster.Default(n), Job: job, NumJobs: jobs}
	if twoClass {
		fast := 1 + int(nodes)%(n-1)
		cfg.Spec = twoClassSpec(fast, n-fast)
	}
	if faults {
		cfg.Faults = &fault.Plan{StragglerProb: 0.1, StragglerAlpha: 2, Speculation: r%2 == 0}
	}
	return cfg, true
}
