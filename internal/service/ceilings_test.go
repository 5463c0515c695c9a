package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// validateBody decodes a wire body of the given kind and runs the checks
// the service runs before any model or simulator work, returning their
// error. It never computes, so an oversized request cannot allocate here
// even when a ceiling is missing.
func validateBody(t *testing.T, s *Service, kind, body string) error {
	t.Helper()
	dec := func(v any) {
		t.Helper()
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatalf("%s body %s: %v", kind, body, err)
		}
	}
	switch kind {
	case "predict":
		var w predictWire
		dec(&w)
		req, err := w.toRequest()
		if err != nil {
			return err
		}
		if req.Workflow == nil {
			return req.validate()
		}
		rw, err := s.resolveWorkflow(context.Background(), &req)
		if err != nil {
			return err
		}
		_, err = rw.stagesAt(req.Spec)
		return err
	case "simulate":
		var w simulateWire
		dec(&w)
		req, err := w.toRequest()
		if err != nil {
			return err
		}
		return req.validate(DefaultSimReps)
	case "compare":
		var w compareWire
		dec(&w)
		req, err := w.toRequest()
		if err != nil {
			return err
		}
		return req.validate(DefaultSimReps)
	case "plan":
		var w planWire
		dec(&w)
		req, err := w.toRequest()
		if err != nil {
			return err
		}
		return req.validate()
	}
	t.Fatalf("unknown kind %q", kind)
	return nil
}

// TestRequestCeilings holds every request kind to MaxNodes and
// MaxModelCells: each cluster (plan-axis points included) and each job
// that can reach the model (workflow stages and simulated jobs included).
// The largest inputs the service serves elsewhere stay accepted.
func TestRequestCeilings(t *testing.T) {
	small := `{"inputMB":512}`
	huge := `{"inputMB":6400000}` // 50,000 maps: about 60 GB of overlap weights
	classes := func(a, b int) string {
		class := `{"name":"%s","count":%d,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":240,"networkMBps":110}`
		return `{"classes":[` + fmt.Sprintf(class, "a", a) + `,` + fmt.Sprintf(class, "b", b) + `]}`
	}
	cases := []struct {
		name, kind, body string
		reject           bool
	}{
		{"predict nodes", "predict", `{"cluster":{"nodes":2000000000},"job":` + small + `}`, true},
		{"predict class nodes", "predict", `{"cluster":` + classes(6000, 6000) + `,"job":` + small + `}`, true},
		{"predict maps", "predict", `{"cluster":{"nodes":4},"job":` + huge + `}`, true},
		{"predict reducers", "predict", `{"cluster":{"nodes":4},"job":{"inputMB":512,"reduces":3000}}`, true},
		// 1,900 maps + 1 reducer: 3·1902² cells on one class fit, 5·1902² on two do not.
		{"predict flat 1900 maps", "predict", `{"cluster":{"nodes":4},"job":{"inputMB":243200}}`, false},
		{"predict two-class 1900 maps", "predict", `{"cluster":` + classes(2, 2) + `,"job":{"inputMB":243200}}`, true},
		{"predict at MaxNodes", "predict", fmt.Sprintf(`{"cluster":{"nodes":%d},"job":%s}`, MaxNodes, small), false},
		{"predict over MaxNodes", "predict", fmt.Sprintf(`{"cluster":{"nodes":%d},"job":%s}`, MaxNodes+1, small), true},
		{"workflow stage maps", "predict", `{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":` + small + `},{"name":"b","job":` + huge + `}],"edges":[{"from":"a","to":"b"}]}}`, true},
		{"workflow stage nodes", "predict", `{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":` + small + `,"cluster":{"nodes":20000}}]}}`, true},
		{"simulate nodes", "simulate", `{"cluster":{"nodes":20000},"job":` + small + `,"reps":1}`, true},
		{"simulate maps", "simulate", `{"cluster":{"nodes":4},"job":` + huge + `,"reps":1}`, true},
		{"simulate 64-node 2048-map probe", "simulate", `{"cluster":{"nodes":64},"job":{"inputMB":262144},"reps":4,"seed":1}`, false},
		{"compare nodes", "compare", `{"cluster":{"nodes":20000},"job":` + small + `}`, true},
		{"compare maps", "compare", `{"cluster":{"nodes":4},"job":` + huge + `}`, true},
		{"plan template nodes", "plan", `{"cluster":{"nodes":20000},"job":` + small + `}`, true},
		{"plan node axis", "plan", `{"cluster":{"nodes":4},"job":` + small + `,"nodes":[4,20000]}`, true},
		{"plan 65-node axis", "plan", `{"cluster":{"nodes":2},"job":{"inputMB":2048,"reduces":1},"nodes":[2,33,65],"deadlineSec":100}`, false},
		{"plan class mix", "plan", `{"cluster":` + classes(2, 2) + `,"job":` + small + `,"classCounts":[[2,2],[6000,6000]]}`, true},
		{"plan block axis", "plan", `{"cluster":{"nodes":4},"job":{"inputMB":262144},"blockSizesMB":[64,128]}`, true},
		{"plan reducer axis", "plan", `{"cluster":{"nodes":4},"job":` + small + `,"reducers":[1,3000]}`, true},
		{"plan workflow stage", "plan", `{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":` + huge + `}]},"nodes":[2,4]}`, true},
		{"plan workflow stage cluster", "plan", `{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":` + small + `,"cluster":{"nodes":20000}}]},"nodes":[2,4]}`, true},
	}
	s := New(Options{Workers: 1})
	for _, tc := range cases {
		err := validateBody(t, s, tc.kind, tc.body)
		switch {
		case tc.reject && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !tc.reject && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject && !strings.Contains(err.Error(), "limit"):
			t.Errorf("%s: rejected for another reason: %v", tc.name, err)
		}
	}

	// Over the wire a ceiling is the structured 400. These two bodies are
	// cheap to compute when a ceiling is missing.
	_, ts := newTestServer(t)
	for _, c := range []struct{ path, body string }{
		{"/v1/predict", `{"cluster":{"nodes":20000},"job":{"inputMB":256}}`},
		{"/v1/plan", `{"cluster":{"nodes":4},"job":{"inputMB":256},"nodes":[4,20000]}`},
	} {
		status, body := postJSON(t, ts.URL+c.path, c.body)
		if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "limit") {
			t.Errorf("%s %s: status %d body %v, want 400 naming the limit", c.path, c.body, status, body)
		}
	}
}
