package trace

import (
	"bytes"
	"reflect"
	"testing"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/workload"
)

// FuzzReadTrace feeds Read arbitrary bytes. The oracle:
//   - Read never panics;
//   - a document it accepts survives Write and a second Read unchanged;
//   - Fit of an accepted document either fails, or fits every class with
//     finite statistics, a positive mean response and non-negative demands.
func FuzzReadTrace(f *testing.F) {
	// A written trace of one map, one shuffle-sort and one merge: a small
	// seed keeps the fuzzer's minimization of new inputs short.
	job, err := workload.NewJob(0, 128, 128, 1, workload.WordCount())
	if err != nil {
		f.Fatal(err)
	}
	res, err := mrsim.Run(mrsim.Config{Spec: cluster.Default(1), Jobs: []workload.Job{job}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The rejection cases of trace_test.go.
	for _, doc := range []string{
		`{"version": 99, "result": {}}`,
		`not json`,
		`{"result":{}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":5,"end":3,"response":3,"tasks":[]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":1,"end":9,"response":9,"tasks":[{"job":0,"class":"map","task":0,"node":0,"start":5,"end":2}]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":1,"end":9,"response":9,"tasks":[{"job":0,"class":"map","task":0,"node":0,"start":-3,"end":2}]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":4,"start":1,"end":9,"response":5,"tasks":[]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":1,"end":9,"response":9,"tasks":[]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":1,"end":9,"response":9,"tasks":[{"job":0,"class":"map","task":0,"node":0,"start":0,"end":1e999}]}]}}`,
		`{"version":1,"result":{"jobs":[{"job":0,"submit":0,"start":1,"end":9,"response":9,"tasks":[{"job":0,"class":"map","task":0,"node":0,"start":0,"end":1,"cpu":5,"disk":-3}]}]}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, res); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("written trace is refused: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("trace changed across Write and Read:\n got %+v\nwant %+v", back, res)
		}
		fit, err := Fit(res, FitOptions{})
		if err != nil {
			return
		}
		for cls, st := range fit.History {
			if !finite(st.MeanResponse, st.CV, st.MeanCPU, st.MeanDisk, st.MeanNetwork) ||
				!(st.MeanResponse > 0) || st.CV < 0 || st.MeanCPU < 0 || st.MeanDisk < 0 || st.MeanNetwork < 0 {
				t.Fatalf("class %v fitted to %+v", cls, st)
			}
		}
	})
}
