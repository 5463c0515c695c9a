package core

import (
	"math"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

func wfConfigs(t *testing.T, spec cluster.Spec, n int) []Config {
	t.Helper()
	job, err := workload.NewJob(0, 1024, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		j := job
		j.ID = i
		cfgs[i] = Config{Spec: spec, Job: j, NumJobs: 1}
	}
	return cfgs
}

func TestPredictWorkflowValidation(t *testing.T) {
	cfgs := wfConfigs(t, cluster.Default(4), 2)
	if _, err := PredictWorkflow(nil, cfgs); err == nil {
		t.Error("nil DAG accepted")
	}
	if _, err := PredictWorkflow(workflow.Chain("a", "b", "c"), cfgs); err == nil {
		t.Error("config/stage count mismatch accepted")
	}
	cyclic := &workflow.DAG{Stages: []string{"a", "b"},
		Edges: []workflow.Edge{{From: "a", To: "b"}, {From: "b", To: "a"}}}
	if _, err := PredictWorkflow(cyclic, cfgs); err == nil {
		t.Error("cyclic DAG accepted")
	}
}

// TestComposeWorkflowSolveOrder pins the composition's calls: the solver
// sees every stage once, in topological order, with each stage's NumJobs
// raised to its wave population.
func TestComposeWorkflowSolveOrder(t *testing.T) {
	spec := cluster.Default(4)
	type call struct{ stage, numJobs int }
	record := func(calls *[]call) func(int, Config) (Prediction, error) {
		return func(i int, cfg Config) (Prediction, error) {
			*calls = append(*calls, call{i, cfg.NumJobs})
			return Prediction{ResponseTime: 10, Converged: true}, nil
		}
	}

	var one []call
	wf, err := ComposeWorkflow(&workflow.DAG{Stages: []string{"only"}}, wfConfigs(t, spec, 1), record(&one))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != (call{0, 1}) {
		t.Errorf("one-stage solves = %+v, want one solve of stage 0", one)
	}
	if wf.ResponseTime != 10 || wf.Tree == nil {
		t.Errorf("one-stage composition = %+v", wf)
	}

	// Declared out of topological order: join first, then the two legs.
	diamond := &workflow.DAG{
		Stages: []string{"join", "left", "right"},
		Edges:  []workflow.Edge{{From: "left", To: "join"}, {From: "right", To: "join"}},
	}
	var three []call
	wf, err = ComposeWorkflow(diamond, wfConfigs(t, spec, 3), record(&three))
	if err != nil {
		t.Fatal(err)
	}
	want := []call{{1, 2}, {2, 2}, {0, 1}}
	if len(three) != len(want) {
		t.Fatalf("three-stage solves = %+v, want %+v", three, want)
	}
	for k := range want {
		if three[k] != want[k] {
			t.Errorf("solve %d = %+v, want %+v", k, three[k], want[k])
		}
	}
	if wf.ResponseTime != 20 || len(wf.CriticalPath) != 2 {
		t.Errorf("three-stage composition: makespan %v, critical path %v", wf.ResponseTime, wf.CriticalPath)
	}
}

// TestWorkflowChainComposesSequentialPredicts is the composition property:
// a chain of K identical dependent jobs must predict the same total
// response as K sequential single-job Predict calls composed — every stage
// is that Predict call, so the chain is within the rounding of the
// critical-path sum (1e-12 relative), and bit-identical for K=1.
func TestWorkflowChainComposesSequentialPredicts(t *testing.T) {
	spec := cluster.Default(4)
	solo, err := Predict(wfConfigs(t, spec, 1)[0])
	if err != nil {
		t.Fatal(err)
	}

	// K=1: a trivial DAG is exactly one Predict.
	one, err := PredictWorkflow(&workflow.DAG{Stages: []string{"only"}}, wfConfigs(t, spec, 1))
	if err != nil {
		t.Fatal(err)
	}
	if one.ResponseTime != solo.ResponseTime {
		t.Errorf("K=1 workflow %x, want bit-identical predict %x",
			one.ResponseTime, solo.ResponseTime)
	}
	if len(one.CriticalPath) != 1 || one.CriticalPath[0] != "only" {
		t.Errorf("K=1 critical path %v", one.CriticalPath)
	}

	for _, k := range []int{2, 4, 8} {
		stages := make([]string, k)
		for i := range stages {
			stages[i] = string(rune('a' + i))
		}
		wf, err := PredictWorkflow(workflow.Chain(stages...), wfConfigs(t, spec, k))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		want := float64(k) * solo.ResponseTime
		if rel := math.Abs(wf.ResponseTime-want) / want; rel > 1e-12 {
			t.Errorf("K=%d: chain response %v vs %d×predict %v: relative error %.2e > 1e-12",
				k, wf.ResponseTime, k, want, rel)
		}
		// Every stage is critical in a chain.
		if len(wf.CriticalPath) != k {
			t.Errorf("K=%d: critical path %v, want all %d stages", k, wf.CriticalPath, k)
		}
		for _, st := range wf.Stages[1:] {
			if st.Slack != 0 || !st.Critical {
				t.Errorf("K=%d: stage %s slack %v, want 0 (critical)", k, st.Name, st.Slack)
			}
		}
	}
}

// TestWorkflowDiamondWaves checks wave-based contention pricing: the two
// middle stages of a diamond share a wave and a cluster, so each is priced
// as one job of a 2-job closed population, and the makespan composes
// root + contended middle + sink.
func TestWorkflowDiamondWaves(t *testing.T) {
	spec := cluster.Default(4)
	dag := &workflow.DAG{
		Stages: []string{"src", "left", "right", "join"},
		Edges: []workflow.Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
	wf, err := PredictWorkflow(dag, wfConfigs(t, spec, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c := wf.Stages[1].Concurrency; c != 2 {
		t.Errorf("left stage concurrency %d, want 2", c)
	}
	// Both middle stages are Predict calls on the same config, and Predict
	// is a function of its config: the two agree bit for bit.
	if wf.Stages[1].ResponseTime != wf.Stages[2].ResponseTime {
		t.Errorf("identical middle stages priced differently: %v vs %v",
			wf.Stages[1].ResponseTime, wf.Stages[2].ResponseTime)
	}
	if wf.Stages[1].ResponseTime <= wf.Stages[0].ResponseTime {
		t.Errorf("contended middle stage (%v) not slower than uncontended root (%v)",
			wf.Stages[1].ResponseTime, wf.Stages[0].ResponseTime)
	}
	want := wf.Stages[0].ResponseTime +
		math.Max(wf.Stages[1].ResponseTime, wf.Stages[2].ResponseTime) +
		wf.Stages[3].ResponseTime
	if math.Abs(wf.ResponseTime-want) > 1e-9*want {
		t.Errorf("diamond makespan %v, want composed %v", wf.ResponseTime, want)
	}
	if len(wf.CriticalPath) != 3 {
		t.Errorf("critical path %v, want 3 stages", wf.CriticalPath)
	}
	// Stage-level precedence tree: middle stages overlap (P), flanked
	// serially — 4 leaves, exactly one P under a chain of S nodes.
	if wf.Tree == nil || wf.Tree.NumLeaves() != 4 {
		t.Fatalf("stage tree %v", wf.Tree)
	}
	if got := wf.Tree.String(); got != "S(S(j0,P(j1,j2)),j3)" {
		t.Errorf("stage tree %s, want S(S(j0,P(j1,j2)),j3)", got)
	}
}

// TestWorkflowStageLocalClustersDoNotContend gives the middle stages of a
// diamond different clusters: the wave is shared but the hardware is not,
// so both keep population 1.
func TestWorkflowStageLocalClustersDoNotContend(t *testing.T) {
	dag := &workflow.DAG{
		Stages: []string{"src", "left", "right", "join"},
		Edges: []workflow.Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
	cfgs := wfConfigs(t, cluster.Default(4), 4)
	cfgs[2].Spec = cluster.Default(8)
	conc, err := WorkflowConcurrency(dag, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if conc[1] != 1 || conc[2] != 1 {
		t.Errorf("stage-local clusters still contend: concurrency %v", conc)
	}
}

// TestWorkflowConcurrencyComparesClasses gives the middle stages of a
// diamond two-class clusters built separately: identical specs contend
// (population 2), and specs differing only in one class's speed do not.
func TestWorkflowConcurrencyComparesClasses(t *testing.T) {
	dag := &workflow.DAG{
		Stages: []string{"src", "left", "right", "join"},
		Edges: []workflow.Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	}
	twoClass := func(fastSpeed float64) cluster.Spec {
		s := cluster.Default(0)
		s.Classes = []cluster.NodeClass{
			{Name: "fast", Count: 2, Capacity: s.NodeCapacity, CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: fastSpeed},
			{Name: "slow", Count: 2, Capacity: s.NodeCapacity, CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110},
		}
		return s
	}
	cfgs := wfConfigs(t, cluster.Default(4), 4)
	cfgs[1].Spec = twoClass(1.5)
	for _, c := range []struct {
		right float64
		want  int
	}{{1.5, 2}, {2, 1}} {
		cfgs[2].Spec = twoClass(c.right)
		conc, err := WorkflowConcurrency(dag, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if conc[1] != c.want || conc[2] != c.want {
			t.Errorf("fast speeds 1.5 and %g: concurrency %v, want %d for the middle stages", c.right, conc, c.want)
		}
	}
}

// TestWorkflowSimModelAgreement is the workflow-level instance of the
// paper's §5 validation loop: the analytic critical-path composition must
// track the discrete-event simulator's dependent-job makespan for chain
// and diamond shapes at the heterogeneous tolerance.
func TestWorkflowSimModelAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed agreement in -short mode")
	}
	const tol = 0.35
	spec := cluster.Default(4)
	for _, tc := range []struct {
		name string
		dag  *workflow.DAG
	}{
		{"chain-3", workflow.Chain("a", "b", "c")},
		{"diamond", &workflow.DAG{
			Stages: []string{"src", "left", "right", "join"},
			Edges: []workflow.Edge{
				{From: "src", To: "left"}, {From: "src", To: "right"},
				{From: "left", To: "join"}, {From: "right", To: "join"},
			},
		}},
	} {
		cfgs := wfConfigs(t, spec, tc.dag.NumStages())
		wf, err := PredictWorkflow(tc.dag, cfgs)
		if err != nil {
			t.Fatalf("%s: predict: %v", tc.name, err)
		}
		jobs := make([]workload.Job, len(cfgs))
		for i := range cfgs {
			jobs[i] = cfgs[i].Job
		}
		res, err := mrsim.RunMedianOfSeeds(mrsim.Config{
			Spec: spec, Jobs: jobs, Workflow: tc.dag, Seed: 7, Scheduler: yarn.PolicyFair,
		}, 3)
		if err != nil {
			t.Fatalf("%s: simulate: %v", tc.name, err)
		}
		sim := res.Makespan
		relErr := math.Abs(wf.ResponseTime-sim) / sim
		t.Logf("%s: model %.1fs vs sim %.1fs (err %.1f%%)", tc.name, wf.ResponseTime, sim, 100*relErr)
		if relErr > tol {
			t.Errorf("%s: model %v vs sim %v: relative error %.2f exceeds %.2f",
				tc.name, wf.ResponseTime, sim, relErr, tol)
		}
	}
}
