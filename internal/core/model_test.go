package core

import (
	"fmt"
	"math"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/workload"
)

func job(t *testing.T, inputMB float64, reduces int) workload.Job {
	t.Helper()
	j, err := workload.NewJob(0, inputMB, 128, reduces, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func predict(t *testing.T, cfg Config) Prediction {
	t.Helper()
	p, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(Config{Spec: cluster.Spec{}, Job: job(t, 1024, 4)}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Predict(Config{Spec: cluster.Default(4), Job: workload.Job{}}); err == nil {
		t.Error("invalid job accepted")
	}
}

// A history CV wide enough to overflow an estimator is an error, never a
// non-finite response time: fork/join's total overflows to +Inf at CV 1e200,
// and Tripathi finds no finite fit. The paper-literal rule ignores CVs.
func TestPredictNonFiniteEstimateIsError(t *testing.T) {
	wide := map[timeline.Class]ClassStats{
		timeline.ClassMap:         {CV: 1e200},
		timeline.ClassShuffleSort: {CV: 1e200},
		timeline.ClassMerge:       {CV: 1e200},
	}
	for _, est := range []Estimator{EstimatorForkJoin, EstimatorTripathi, EstimatorPaperLiteral} {
		p, err := Predict(Config{Spec: cluster.Default(2), Job: job(t, 512, 2), History: wide, Estimator: est})
		switch {
		case est == EstimatorPaperLiteral && err != nil:
			t.Errorf("%v: %v", est, err)
		case est != EstimatorPaperLiteral && err == nil:
			t.Errorf("%v: no error, response time %v", est, p.ResponseTime)
		case err == nil && !(p.ResponseTime > 0 && !math.IsInf(p.ResponseTime, 0)):
			t.Errorf("%v: response time %v", est, p.ResponseTime)
		}
	}
}

// checkTree checks a precedence tree's structure: a leaf carries a task
// and no children; an S or P node carries two children and no task.
func checkTree(n *ptree.Node) error {
	switch {
	case n == nil:
		return fmt.Errorf("nil node")
	case n.Op == ptree.Leaf && (n.Task == nil || n.Left != nil || n.Right != nil):
		return fmt.Errorf("malformed leaf")
	case n.Op == ptree.Leaf:
		return nil
	case n.Task != nil:
		return fmt.Errorf("%s node with task", n.Op)
	}
	if err := checkTree(n.Left); err != nil {
		return err
	}
	return checkTree(n.Right)
}

func TestPredictConvergesAndIsPositive(t *testing.T) {
	for _, est := range []Estimator{EstimatorForkJoin, EstimatorTripathi, EstimatorPaperLiteral} {
		p := predict(t, Config{Spec: cluster.Default(4), Job: job(t, 1024, 4), Estimator: est})
		if !p.Converged {
			t.Errorf("%s did not converge in %d iterations", est, p.Iterations)
		}
		if p.ResponseTime <= 0 {
			t.Errorf("%s response = %v", est, p.ResponseTime)
		}
		if p.Timeline == nil || p.Tree == nil {
			t.Errorf("%s missing artifacts", est)
		}
		if err := checkTree(p.Tree); err != nil {
			t.Errorf("%s tree invalid: %v", est, err)
		}
	}
}

func TestPredictAboveUncontendedLowerBound(t *testing.T) {
	// The prediction can never be below the critical path lower bound:
	// one map wave + merge (the shuffle may fully overlap maps).
	spec := cluster.Default(4)
	j := job(t, 1024, 4)
	md := j.MapDemands(j.BlockSizeMB, spec.DiskMBps)
	mg := j.MergeDemands(spec.DiskMBps)
	lower := j.Profile.AMStartup + (md.CPU + md.Disk + md.Network) + (mg.CPU + mg.Disk + mg.Network)
	p := predict(t, Config{Spec: spec, Job: j})
	if p.ResponseTime < lower {
		t.Errorf("response %v below uncontended bound %v", p.ResponseTime, lower)
	}
}

func TestPredictMonotoneInInputSize(t *testing.T) {
	spec := cluster.Default(4)
	prev := 0.0
	for _, mb := range []float64{512, 1024, 2048, 5120} {
		p := predict(t, Config{Spec: spec, Job: job(t, mb, 4)})
		if p.ResponseTime <= prev {
			t.Fatalf("response not increasing at %v MB: %v <= %v", mb, p.ResponseTime, prev)
		}
		prev = p.ResponseTime
	}
}

func TestPredictDecreasesWithNodes(t *testing.T) {
	// Fig 10/12 shape: more nodes, faster jobs (reducers scale with nodes).
	prev := 1e18
	for _, n := range []int{4, 6, 8} {
		p := predict(t, Config{Spec: cluster.Default(n), Job: job(t, 5*1024, n)})
		if p.ResponseTime >= prev {
			t.Fatalf("response not decreasing at %d nodes: %v >= %v", n, p.ResponseTime, prev)
		}
		prev = p.ResponseTime
	}
}

func TestPredictGrowsWithConcurrentJobs(t *testing.T) {
	// Fig 14 shape: more concurrent jobs, slower each job.
	spec := cluster.Default(4)
	j := job(t, 5*1024, 4)
	prev := 0.0
	for n := 1; n <= 4; n++ {
		p := predict(t, Config{Spec: spec, Job: j, NumJobs: n})
		if p.ResponseTime <= prev {
			t.Fatalf("response not increasing at %d jobs: %v <= %v", n, p.ResponseTime, prev)
		}
		prev = p.ResponseTime
	}
}

func TestEstimatorOrdering(t *testing.T) {
	// In the calibrated configuration the Tripathi estimator always
	// overestimates more than fork/join (the paper's ranking), and the
	// literal 3/2 rule dominates both.
	for _, mb := range []float64{1024, 5120} {
		for _, nodes := range []int{4, 8} {
			spec := cluster.Default(nodes)
			j := job(t, mb, nodes)
			fj := predict(t, Config{Spec: spec, Job: j, Estimator: EstimatorForkJoin})
			tp := predict(t, Config{Spec: spec, Job: j, Estimator: EstimatorTripathi})
			lit := predict(t, Config{Spec: spec, Job: j, Estimator: EstimatorPaperLiteral})
			if fj.ResponseTime >= tp.ResponseTime {
				t.Errorf("%vMB/%dn: fork/join %v >= tripathi %v", mb, nodes, fj.ResponseTime, tp.ResponseTime)
			}
			if lit.ResponseTime <= fj.ResponseTime {
				t.Errorf("%vMB/%dn: literal %v <= fork/join %v", mb, nodes, lit.ResponseTime, fj.ResponseTime)
			}
		}
	}
}

func TestHistoryOverridesInitialization(t *testing.T) {
	spec := cluster.Default(4)
	j := job(t, 1024, 4)
	base := predict(t, Config{Spec: spec, Job: j})
	// Doubling the map demand through history must slow the prediction.
	md := j.MapDemands(j.BlockSizeMB, spec.DiskMBps)
	hist := map[timeline.Class]ClassStats{
		timeline.ClassMap: {MeanCPU: md.CPU * 2, MeanDisk: md.Disk * 2, MeanResponse: (md.CPU + md.Disk + md.Network) * 2},
	}
	slow := predict(t, Config{Spec: spec, Job: j, History: hist})
	if slow.ResponseTime <= base.ResponseTime {
		t.Errorf("history with doubled map demand: %v <= base %v", slow.ResponseTime, base.ResponseTime)
	}
	// Raising the leaf CV raises the fork/join estimate.
	loCV := predict(t, Config{Spec: spec, Job: j, History: map[timeline.Class]ClassStats{
		timeline.ClassMap:         {CV: 0.02},
		timeline.ClassShuffleSort: {CV: 0.02},
		timeline.ClassMerge:       {CV: 0.02},
	}})
	hiCV := predict(t, Config{Spec: spec, Job: j, History: map[timeline.Class]ClassStats{
		timeline.ClassMap:         {CV: 0.4},
		timeline.ClassShuffleSort: {CV: 0.4},
		timeline.ClassMerge:       {CV: 0.4},
	}})
	if hiCV.ResponseTime <= loCV.ResponseTime {
		t.Errorf("higher leaf CV did not raise the estimate: %v <= %v", hiCV.ResponseTime, loCV.ResponseTime)
	}
}

func TestClassResponsesPopulated(t *testing.T) {
	p := predict(t, Config{Spec: cluster.Default(4), Job: job(t, 1024, 4)})
	for _, cls := range []timeline.Class{timeline.ClassMap, timeline.ClassShuffleSort, timeline.ClassMerge} {
		if p.ClassResponse[cls] <= 0 {
			t.Errorf("class %s response = %v", cls, p.ClassResponse[cls])
		}
	}
	// Map class response can't be below the uncontended map demand.
	spec := cluster.Default(4)
	j := job(t, 1024, 4)
	md := j.MapDemands(j.BlockSizeMB, spec.DiskMBps)
	if p.ClassResponse[timeline.ClassMap] < md.CPU+md.Disk+md.Network-1e-6 {
		t.Error("map class response below demand")
	}
}

func TestSlowStartShortensJob(t *testing.T) {
	spec := cluster.Default(4)
	withSS := job(t, 5*1024, 4)
	noSS := withSS
	noSS.SlowStart = false
	a := predict(t, Config{Spec: spec, Job: withSS})
	b := predict(t, Config{Spec: spec, Job: noSS})
	if a.ResponseTime > b.ResponseTime+1e-9 {
		t.Errorf("slow start (%v) slower than no slow start (%v)", a.ResponseTime, b.ResponseTime)
	}
}

func TestEpsilonAndIterationDefaults(t *testing.T) {
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Epsilon != DefaultEpsilon || cfg.MaxIterations != DefaultMaxIterations {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.NumJobs != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestEstimatorString(t *testing.T) {
	if EstimatorForkJoin.String() != "fork/join" ||
		EstimatorTripathi.String() != "tripathi" ||
		EstimatorPaperLiteral.String() != "paper-literal" {
		t.Error("estimator strings wrong")
	}
}

func TestTinyJobSingleMap(t *testing.T) {
	// 100 MB -> a single (short) map task; the model must handle m=1, r=1.
	j, err := workload.NewJob(0, 100, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	p := predict(t, Config{Spec: cluster.Default(2), Job: j})
	if p.ResponseTime <= 0 || !p.Converged {
		t.Errorf("tiny job: %+v", p)
	}
	if p.Tree.NumLeaves() != 3 { // 1 map + shuffle-sort + merge
		t.Errorf("leaves = %d", p.Tree.NumLeaves())
	}
}

func TestManyJobsSlotDivision(t *testing.T) {
	// With more jobs than per-node slots the per-job share floors at one
	// lane per node; the prediction must still converge.
	p := predict(t, Config{Spec: cluster.Default(2), Job: job(t, 1024, 2), NumJobs: 32})
	if p.ResponseTime <= 0 {
		t.Errorf("response = %v", p.ResponseTime)
	}
}
