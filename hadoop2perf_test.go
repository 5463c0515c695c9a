package hadoop2perf

import (
	"math"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	spec := DefaultCluster(2)
	job, err := NewJob(0, 512, 128, 2, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(ModelConfig{Spec: spec, Job: job, NumJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pred.ResponseTime <= 0 {
		t.Errorf("response = %v", pred.ResponseTime)
	}
	res, err := Simulate(SimConfig{Spec: spec, Jobs: []Job{job}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse() <= 0 {
		t.Errorf("sim response = %v", res.MeanResponse())
	}
}

func TestFacadeProfiles(t *testing.T) {
	spec := DefaultCluster(2)
	for _, p := range []Profile{WordCount(), Grep(), TeraSort()} {
		job, err := NewJob(0, 512, 128, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Predict(ModelConfig{Spec: spec, Job: job, NumJobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r := pred.ResponseTime; !(r > 0) || math.IsInf(r, 0) {
			t.Errorf("%s: response = %v", p.Name, r)
		}
	}
}

func TestFacadeCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed comparison in -short mode")
	}
	spec := DefaultCluster(2)
	job, err := NewJob(0, 512, 128, 2, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(spec, job, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Simulated <= 0 || cmp.ForkJoin <= 0 || cmp.Tripathi <= 0 {
		t.Errorf("comparison = %+v", cmp)
	}
	if cmp.ForkJoin >= cmp.Tripathi {
		t.Errorf("estimator ordering: fj %v >= tp %v", cmp.ForkJoin, cmp.Tripathi)
	}
}

func TestFacadeCompareDegenerateInputs(t *testing.T) {
	// Compare happy path aside (above), the facade must reject impossible
	// configurations instead of hanging a simulation.
	spec := DefaultCluster(2)
	job, err := NewJob(0, 512, 128, 2, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(spec, job, 1, 1, 0); err == nil {
		t.Error("zero reps accepted")
	}
	bad := job
	bad.InputMB = 0
	if _, err := Compare(spec, bad, 1, 1, 1); err == nil {
		t.Error("zero-input job accepted")
	}
}

func TestFacadeService(t *testing.T) {
	// The facade constructor wires the full service stack: engine, cache
	// and HTTP handler.
	svc := NewService(ServiceOptions{Workers: 2, CacheSize: 8})
	spec := DefaultCluster(2)
	job, err := NewJob(0, 512, 128, 2, WordCount())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Predict(t.Context(), PredictRequest{Spec: spec, Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prediction.ResponseTime <= 0 {
		t.Fatalf("response = %v", resp.Prediction.ResponseTime)
	}
	again, err := svc.Predict(t.Context(), PredictRequest{Spec: spec, Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat predict not cached")
	}
	plan, err := svc.Plan(t.Context(), PlanRequest{
		Spec: spec, Job: job, Nodes: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best == nil || plan.Evaluated != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if NewServiceHandler(svc, 0) == nil {
		t.Fatal("nil handler")
	}
	if m := svc.Metrics(); m.PredictRequests < 2 || m.HitRate <= 0 {
		t.Errorf("metrics = %+v", m)
	}
}
