package service

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"hadoop2perf/internal/core"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// The result table never expires an entry, which is sound only if a key
// carries every input its answer reads. TestKeysCoverEveryInput proves that
// by reflection: it perturbs each leaf field reachable from a request, one
// at a time, and requires a different key. A field a key leaves out on
// purpose is listed with its reason, and must then leave the key unchanged.
// Slice indices are written [] in these paths.

// predictKeyExclusions are the PredictRequest fields predictKey omits.
var predictKeyExclusions = map[string]string{
	"Job.ID":   "the model never reads a job's ID, so one shape under any ID shares an entry (simulateKey keys it)",
	"Profile":  "the calibrated profile's name: its resolved content hash (resolved) is keyed instead",
	"Workflow": "a workflow-bearing request is hashed under its own key kind, workflowPredictKey",
}

// compareKeyExclusions are the CompareRequest fields compareKey omits.
var compareKeyExclusions = map[string]string{
	"Job.ID":  predictKeyExclusions["Job.ID"],
	"Profile": predictKeyExclusions["Profile"],
}

// workflowKeyExclusions are the workflowKeyInput fields workflowPredictKey
// omits.
var workflowKeyExclusions = map[string]string{
	"Stages[].Job.ID":   predictKeyExclusions["Job.ID"],
	"Stages[].Profile":  predictKeyExclusions["Profile"],
	"Stages[].Workflow": "a stage request carries no workflow of its own; the DAG is keyed instead",
}

// workflowKeyInput bundles workflowPredictKey's arguments so one walk
// reaches the DAG and every stage request.
type workflowKeyInput struct {
	DAG    workflow.DAG
	Stages []PredictRequest
}

func TestKeysCoverEveryInput(t *testing.T) {
	job := testJob(t, 1024, 4)
	resolved := func() *calibratedProfile {
		return &calibratedProfile{info: ProfileInfo{Name: "prod", Version: 1, Hash: "content"}}
	}
	faults := func() *fault.Plan {
		return &fault.Plan{NodeMTTFSec: 3600, RepairDelaySec: 60, MaxNodeFailures: 2,
			StragglerProb: 0.05, StragglerAlpha: 2, Speculation: true, SpeculationLateness: 1.5}
	}
	predict := func() PredictRequest {
		return PredictRequest{Spec: mixSpec(), Job: job, NumJobs: 2, Estimator: core.EstimatorTripathi,
			Faults: faults(), Profile: "prod", resolved: resolved()}
	}
	t.Run("predict", func(t *testing.T) {
		checkKeyCoversFields(t, predict, predictKey, predictKeyExclusions)
	})
	t.Run("simulate", func(t *testing.T) {
		checkKeyCoversFields(t, func() SimulateRequest {
			second := job
			second.ID = 1
			return SimulateRequest{Spec: mixSpec(), Jobs: []workload.Job{job, second}, Seed: 7, Reps: 3,
				Policy: yarn.PolicyFair, Faults: faults()}
		}, simulateKey, nil)
	})
	t.Run("compare", func(t *testing.T) {
		checkKeyCoversFields(t, func() CompareRequest {
			return CompareRequest{Spec: mixSpec(), Job: job, NumJobs: 2, Seed: 7, Reps: 3,
				Faults: faults(), Profile: "prod", resolved: resolved()}
		}, compareKey, compareKeyExclusions)
	})
	t.Run("workflow", func(t *testing.T) {
		checkKeyCoversFields(t, func() workflowKeyInput {
			return workflowKeyInput{
				DAG:    workflow.DAG{Stages: []string{"extract", "load"}, Edges: []workflow.Edge{{From: "extract", To: "load"}}},
				Stages: []PredictRequest{predict(), predict()},
			}
		}, func(in workflowKeyInput) string { return workflowPredictKey(&in.DAG, in.Stages) }, workflowKeyExclusions)
	})
}

// checkKeyCoversFields perturbs every leaf of a fresh base() in turn: a
// listed exclusion must keep base's key, any other field must change it. An
// exclusion that names no field fails too, so the list cannot go stale.
func checkKeyCoversFields[R any](t *testing.T, base func() R, key func(R) string, excluded map[string]string) {
	t.Helper()
	want := key(base())
	var paths []string
	r := base()
	keyLeaves(reflect.ValueOf(&r).Elem(), "", func(path string, _ func()) { paths = append(paths, path) })
	seen := map[string]bool{}
	for i, path := range paths {
		r := base()
		n := 0
		keyLeaves(reflect.ValueOf(&r).Elem(), "", func(_ string, set func()) {
			if n == i && set != nil {
				set()
			}
			n++
		})
		norm := sliceIndex.ReplaceAllString(path, "[]")
		_, isExcluded := excluded[norm]
		seen[norm] = true
		switch got := key(r); {
		case isExcluded && got != want:
			t.Errorf("%s is listed as excluded, yet it changes the key", path)
		case !isExcluded && got == want:
			t.Errorf("%s does not reach the key: encode it, or list it as excluded with a reason", path)
		}
	}
	for path := range excluded {
		if !seen[path] {
			t.Errorf("exclusion %s names no field", path)
		}
	}
	t.Logf("%d fields, %d excluded", len(paths), len(excluded))
}

var sliceIndex = regexp.MustCompile(`\[\d+\]`)

// keyLeaves calls f with the path of every leaf reachable from v, through
// structs, non-nil pointers and slice elements, and a func that perturbs
// that leaf in place: a number moves by one, a bool flips, a string grows, a
// nil pointer gets a zero target and an empty slice a zero element. The one
// unexported request field, resolved, is set to a profile of other content;
// any other unexported field gets a nil set, so it reads as unkeyed.
func keyLeaves(v reflect.Value, path string, f func(path string, set func())) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			sf := v.Type().Field(i)
			p := sf.Name
			if path != "" {
				p = path + "." + p
			}
			if !sf.IsExported() {
				f(p, unexportedSetter(v, sf.Name))
				continue
			}
			keyLeaves(v.Field(i), p, f)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			keyLeaves(v.Elem(), path, f)
			return
		}
		f(path, func() { v.Set(reflect.New(v.Type().Elem())) })
	case reflect.Slice:
		if v.Len() == 0 {
			f(path, func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		}
		for i := range v.Len() {
			keyLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Int, reflect.Int64:
		f(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Float64:
		f(path, func() { v.SetFloat(v.Float() + 1) })
	case reflect.Bool:
		f(path, func() { v.SetBool(!v.Bool()) })
	case reflect.String:
		f(path, func() { v.SetString(v.String() + "x") })
	default:
		panic("keyLeaves: unhandled kind " + v.Kind().String() + " at " + path)
	}
}

// unexportedSetter perturbs the unexported field name of the addressable
// struct parent, or returns nil for a field it does not know.
func unexportedSetter(parent reflect.Value, name string) func() {
	if name != "resolved" {
		return nil
	}
	other := &calibratedProfile{info: ProfileInfo{Name: "prod", Version: 2, Hash: "other content"}}
	switch r := parent.Addr().Interface().(type) {
	case *PredictRequest:
		return func() { r.resolved = other }
	case *CompareRequest:
		return func() { r.resolved = other }
	}
	return nil
}
