package trace

import (
	"bytes"
	"math"
	"testing"

	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/stats"
	"hadoop2perf/internal/timeline"
)

// record builds one task record with the given duration and demands.
func record(cls mrsim.TaskClass, id int, dur, cpu, disk, net float64) mrsim.TaskRecord {
	return mrsim.TaskRecord{
		JobID: 0, Class: cls, TaskID: id,
		Start: 0, End: dur, CPU: cpu, Disk: disk, Network: net,
	}
}

// syntheticResult wraps records into a one-job result.
func syntheticResult(tasks ...mrsim.TaskRecord) mrsim.Result {
	end := 0.0
	for _, t := range tasks {
		if t.End > end {
			end = t.End
		}
	}
	return mrsim.Result{Jobs: []mrsim.JobResult{{
		JobID: 0, Submit: 0, Start: 0, End: end, Response: end, Tasks: tasks,
	}}}
}

func TestFitMeansAndCounts(t *testing.T) {
	res := syntheticResult(
		record(mrsim.ClassMap, 0, 10, 8, 1, 0),
		record(mrsim.ClassMap, 1, 20, 16, 3, 0),
		record(mrsim.ClassShuffleSort, 0, 6, 2, 1, 3),
	)
	fit, err := Fit(res, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Jobs != 1 || fit.Tasks != 3 {
		t.Errorf("jobs=%d tasks=%d", fit.Jobs, fit.Tasks)
	}
	m := fit.History[timeline.ClassMap]
	if m.MeanResponse != 15 || m.MeanCPU != 12 || m.MeanDisk != 2 || m.MeanNetwork != 0 {
		t.Errorf("map stats = %+v", m)
	}
	ss := fit.History[timeline.ClassShuffleSort]
	if ss.MeanResponse != 6 || ss.MeanNetwork != 3 {
		t.Errorf("shuffle-sort stats = %+v", ss)
	}
	if _, ok := fit.History[timeline.ClassMerge]; ok {
		t.Error("merge fitted with no merge samples")
	}
	if fc := fit.Classes[timeline.ClassMap]; fc.Samples != 2 || fc.Trimmed != 0 {
		t.Errorf("map provenance = %+v", fc)
	}
}

// TestFitTrimsOutliers: a straggler 10x the population must not drag the
// fitted mean when trimming is on, and its demand samples go with it.
func TestFitTrimsOutliers(t *testing.T) {
	tasks := make([]mrsim.TaskRecord, 0, 10)
	for i := 0; i < 9; i++ {
		tasks = append(tasks, record(mrsim.ClassMap, i, 10, 5, 1, 0))
	}
	tasks = append(tasks, record(mrsim.ClassMap, 9, 100, 50, 10, 0))
	res := syntheticResult(tasks...)

	raw, err := Fit(res, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if raw.History[timeline.ClassMap].MeanResponse != 19 {
		t.Errorf("untrimmed mean = %v", raw.History[timeline.ClassMap].MeanResponse)
	}

	trimmed, err := Fit(res, FitOptions{TrimFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m := trimmed.History[timeline.ClassMap]
	// 10% off each tail of 10 samples drops the straggler and one short task,
	// leaving eight identical records.
	if m.MeanResponse != 10 || m.MeanCPU != 5 || m.MeanDisk != 1 {
		t.Errorf("trimmed stats = %+v", m)
	}
	if m.CV != 0 {
		t.Errorf("trimmed CV = %v, want 0 for identical samples", m.CV)
	}
	if fc := trimmed.Classes[timeline.ClassMap]; fc.Samples != 8 || fc.Trimmed != 2 {
		t.Errorf("provenance = %+v", fc)
	}
}

func TestFitCVFloor(t *testing.T) {
	res := syntheticResult(
		record(mrsim.ClassMap, 0, 10, 5, 1, 0),
		record(mrsim.ClassMap, 1, 10, 5, 1, 0),
	)
	fit, err := Fit(res, FitOptions{CVFloor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if cv := fit.History[timeline.ClassMap].CV; cv != 0.2 {
		t.Errorf("CV = %v, want floored 0.2", cv)
	}
	// The ceiling itself is a valid floor.
	if fit, err = Fit(res, FitOptions{CVFloor: MaxCVFloor}); err != nil {
		t.Fatal(err)
	}
	if cv := fit.History[timeline.ClassMap].CV; cv != MaxCVFloor {
		t.Errorf("CV = %v, want floored %v", cv, MaxCVFloor)
	}
}

func TestFitMinSamples(t *testing.T) {
	res := syntheticResult(record(mrsim.ClassMap, 0, 10, 5, 1, 0))
	if _, err := Fit(res, FitOptions{MinSamples: 3}); err == nil {
		t.Error("single sample accepted against MinSamples=3")
	}
	if _, err := Fit(res, FitOptions{}); err != nil {
		t.Errorf("default min samples rejected a valid class: %v", err)
	}
}

func TestFitRejectsBadOptions(t *testing.T) {
	res := syntheticResult(record(mrsim.ClassMap, 0, 10, 5, 1, 0))
	for _, opts := range []FitOptions{
		{TrimFraction: -0.1},
		{TrimFraction: 0.5},
		{MinSamples: -1},
		{CVFloor: -1},
		{CVFloor: MaxCVFloor * 1.01},
		{CVFloor: 1e200},
		{CVFloor: math.Inf(1)},
		{CVFloor: math.NaN()},
	} {
		if _, err := Fit(res, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}

func TestFitRejectsUnknownClassAndEmpty(t *testing.T) {
	if _, err := Fit(mrsim.Result{}, FitOptions{}); err == nil {
		t.Error("empty result accepted")
	}
	res := syntheticResult(record("reduce-side-magic", 0, 10, 5, 1, 0))
	if _, err := Fit(res, FitOptions{}); err == nil {
		t.Error("unknown task class accepted")
	}
	noTasks := mrsim.Result{Jobs: []mrsim.JobResult{{JobID: 0}}}
	if _, err := Fit(noTasks, FitOptions{}); err == nil {
		t.Error("taskless trace accepted")
	}
}

// TestFitRejectsUnusableStatistics: valid records whose class statistics
// overflow, or whose kept tasks all took no time, calibrate nothing.
func TestFitRejectsUnusableStatistics(t *testing.T) {
	cases := map[string]mrsim.Result{
		"zero duration":        syntheticResult(record(mrsim.ClassMap, 0, 0, 5, 1, 0)),
		"overflowing duration": syntheticResult(record(mrsim.ClassMap, 0, 1e308, 5, 1, 0), record(mrsim.ClassMap, 1, 1e308, 5, 1, 0)),
		"overflowing spread":   syntheticResult(record(mrsim.ClassMap, 0, 1e308, 5, 1, 0), record(mrsim.ClassMap, 1, 1, 5, 1, 0)),
		"overflowing demand":   syntheticResult(record(mrsim.ClassMap, 0, 10, 1e308, 1, 0), record(mrsim.ClassMap, 1, 10, 1e308, 1, 0)),
	}
	for name, res := range cases {
		if err := Validate(res); err != nil {
			t.Fatalf("%s: the records themselves are invalid: %v", name, err)
		}
		if fit, err := Fit(res, FitOptions{}); err == nil {
			t.Errorf("%s: fitted %+v", name, fit.History)
		}
	}
}

// TestFitRoundTripFromSimulation is the §4.2.1 closed loop: a trace written
// by the simulator, serialized, re-read and fitted must reproduce the
// simulated per-class duration means (and demand means) it was derived from.
func TestFitRoundTripFromSimulation(t *testing.T) {
	res := simResult(t)

	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := Fit(back, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want := map[timeline.Class][]float64{}
	wantCPU := map[timeline.Class][]float64{}
	for _, j := range res.Jobs {
		for _, task := range j.Tasks {
			cls, ok := classOf(task.Class)
			if !ok {
				t.Fatalf("unknown class %q", task.Class)
			}
			want[cls] = append(want[cls], task.Duration())
			wantCPU[cls] = append(wantCPU[cls], task.CPU)
		}
	}
	if len(fit.History) != len(want) {
		t.Fatalf("fitted %d classes, simulated %d", len(fit.History), len(want))
	}
	const tol = 1e-9
	for cls, durs := range want {
		got, ok := fit.History[cls]
		if !ok {
			t.Fatalf("class %s missing from fit", cls)
		}
		if m := stats.Mean(durs); math.Abs(got.MeanResponse-m) > tol*m {
			t.Errorf("%s: fitted mean %v vs simulated %v", cls, got.MeanResponse, m)
		}
		if m := stats.Mean(wantCPU[cls]); math.Abs(got.MeanCPU-m) > tol*math.Max(m, 1) {
			t.Errorf("%s: fitted CPU %v vs simulated %v", cls, got.MeanCPU, m)
		}
	}
}
