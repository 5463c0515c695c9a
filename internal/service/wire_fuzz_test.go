package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPredictBody drives POST /v1/predict through the full handler with an
// arbitrary body. X-Deadline-Ms bounds each request, so inputs near the
// request ceilings answer 504 instead of solving for seconds. The oracle:
//   - no panic and no 500: every engine failure on client input is a
//     client error;
//   - every non-200 answer carries the structured error body;
//   - a body that decodes as a predict request and is refused gets a 400
//     (or a 503/504 from admission or the deadline), never another status;
//   - a 200 carries a finite, positive responseTime;
//   - a body that parses into a request keeps its predictKey across
//     re-encoding the parsed wire form and parsing it again.
func FuzzPredictBody(f *testing.F) {
	for _, tc := range goldenHTTPCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"cluster":{"nodes":0},"job":{"inputMB":1024}}`))
	f.Add([]byte(`{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":{"inputMB":512}},{"name":"b","job":{"inputMB":512,"reduces":2}}],"edges":[{"from":"a","to":"b"}]}}`))
	// cluster.custom reaches the full cluster.Spec decoder: the flat form,
	// heterogeneous classes, and classes with the fault surface.
	f.Add([]byte(`{"cluster":{"custom":{"numNodes":3,"nodeCapacity":{"memoryMB":32768,"vcores":32},` +
		`"mapContainer":{"memoryMB":4096,"vcores":2},"reduceContainer":{"memoryMB":4096,"vcores":4},` +
		`"cpuPerNode":6,"diskPerNode":1,"diskMBps":240,"networkMBps":110}},"job":{"inputMB":512,"reduces":2}}`))
	f.Add([]byte(`{"cluster":{"custom":{"mapContainer":{"memoryMB":4096,"vcores":2},"reduceContainer":{"memoryMB":4096,"vcores":4},"classes":[` +
		`{"name":"fast","count":2,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":240,"networkMBps":110,"speed":1.5},` +
		`{"name":"slow","count":2,"capacity":{"memoryMB":16384,"vcores":16},"cpus":4,"disks":1,"diskMBps":140,"networkMBps":110,"speed":0.5}]}},` +
		`"job":{"inputMB":512}}`))
	f.Add([]byte(`{"cluster":{"custom":{"mapContainer":{"memoryMB":4096,"vcores":2},"reduceContainer":{"memoryMB":4096,"vcores":4},"classes":[` +
		`{"name":"ondemand","count":2,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":240,"networkMBps":110,"price":3},` +
		`{"name":"spot","count":2,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":240,"networkMBps":110,` +
		`"preemptible":true,"revocationRate":2,"price":1}]}},"job":{"inputMB":512}}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPredictKeyRoundTrip(t, body)
		out, ok := serveBody(t, h, "/v1/predict", "200", body, &predictWire{})
		if !ok {
			return
		}
		var res struct {
			ResponseTime *float64 `json:"responseTime"`
		}
		if err := json.Unmarshal(out, &res); err != nil || res.ResponseTime == nil {
			t.Fatalf("200 without a responseTime (%v): %s", err, out)
		}
		if rt := *res.ResponseTime; !(rt > 0) || math.IsInf(rt, 0) {
			t.Fatalf("200 with responseTime %v for %q", rt, body)
		}
	})
}

// checkPredictKeyRoundTrip parses body as a predict request and, when it
// parses, re-encodes the wire form, parses that again and requires the
// same cache key: the key must depend on what a request says, not on how
// its JSON spelled it.
func checkPredictKeyRoundTrip(t *testing.T, body []byte) {
	t.Helper()
	var first predictWire
	if decodeStrict(body, &first) != nil {
		return
	}
	req, err := first.toRequest()
	if err != nil {
		return
	}
	again, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("re-encode %q: %v", body, err)
	}
	var second predictWire
	if err := decodeStrict(again, &second); err != nil {
		t.Fatalf("re-encoded %q does not parse: %v", again, err)
	}
	req2, err := second.toRequest()
	if err != nil {
		t.Fatalf("re-encoded %q is refused: %v", again, err)
	}
	if predictKey(req) != predictKey(req2) {
		t.Fatalf("predictKey moved across re-encoding: %q vs %q", body, again)
	}
}

// decodeStrict decodes body into v as the handler does: one JSON value,
// unknown fields refused.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// serveBody POSTs body to path through h, with X-Deadline-Ms set to
// deadline unless it is empty, and checks the oracle every wire-body
// target shares: no panic and no 500; a refusal is a 400, or a 503/504
// from admission or the deadline, and carries the structured error body;
// a body that does not decode into req (unknown fields refused) gets a
// 400. It returns a 200's body and true, or false after a refusal.
func serveBody(t *testing.T, h http.Handler, path, deadline string, body []byte, req any) ([]byte, bool) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if deadline != "" {
		r.Header.Set(DeadlineHeader, deadline)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)

	decodable := decodeStrict(body, req) == nil

	switch st := w.Code; st {
	case http.StatusOK:
		return w.Body.Bytes(), true
	case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if !decodable && st != http.StatusBadRequest {
			t.Fatalf("undecodable body answered %d, want 400: %q", st, body)
		}
		var e errorWire
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%d without the structured error body (%v): %s", st, err, w.Body.Bytes())
		}
	default:
		t.Fatalf("status %d for %q: %s", st, body, w.Body.Bytes())
	}
	return nil, false
}

// FuzzCompareBody drives POST /v1/compare, the one wire route that runs the
// Tripathi estimator beside the simulator, through the full handler on
// FuzzPredictBody's oracle, with X-Deadline-Ms 200. A 200 carries a finite,
// positive Simulated, ForkJoin and Tripathi and finite signed errors.
func FuzzCompareBody(f *testing.F) {
	for _, tc := range goldenHTTPCases {
		if tc.path == "/v1/compare" {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"cluster":{"nodes":2},"job":{"inputMB":512,"reduces":2},"numJobs":2,"seed":5,"reps":2,
		"faults":{"nodeMTTFSec":600,"repairDelaySec":30,"stragglerProb":0.1,"stragglerAlpha":2,"speculation":true}}`))
	f.Add([]byte(`{"cluster":{"classes":[
		{"name":"fast","count":2,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":240,"networkMBps":110,"speed":1},
		{"name":"slow","count":2,"capacity":{"memoryMB":32768,"vcores":32},"cpus":6,"disks":1,"diskMBps":140,"networkMBps":110,"speed":0.5}
	]},"job":{"inputMB":512,"reduces":2},"seed":2,"reps":2}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		out, ok := serveBody(t, h, "/v1/compare", "200", body, &compareWire{})
		if !ok {
			return
		}
		var res CompareResponse
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("200 without a compare result (%v): %s", err, out)
		}
		for _, v := range []float64{res.Simulated, res.ForkJoin, res.Tripathi} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("200 with a response time of %v for %q: %s", v, body, out)
			}
		}
		for _, e := range []float64{res.ForkJoinErr, res.TripathiErr} {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("200 with a relative error of %v for %q: %s", e, body, out)
			}
		}
	})
}

// FuzzCalibrateBody drives POST /v1/calibrate, the endpoint with the
// largest untrusted body (a whole trace document), through the full
// handler. The oracle:
//   - no panic and no 500;
//   - every non-200 answer carries the structured error body;
//   - a body that does not decode as a calibrate request gets a 400;
//   - a 200 reports, for every fitted class, a finite, positive
//     meanResponse and a finite cv ≥ 0.
func FuzzCalibrateBody(f *testing.F) {
	f.Add([]byte(calibrateBody(f, "prod-wc")))
	f.Add([]byte(`{"name":"x","trace":{"version":1,"result":{}}}`))
	f.Add([]byte(`{"name":"x","trace":null,"trimFraction":0.4,"minSamples":1,"cvFloor":0.5}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		out, ok := serveBody(t, h, "/v1/calibrate", "", body, &calibrateWire{})
		if !ok {
			return
		}
		var res calibrateResultWire
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("200 without a calibrate result (%v): %s", err, out)
		}
		for cls, c := range res.Classes {
			if !(c.MeanResponse > 0) || math.IsInf(c.MeanResponse, 0) || !(c.CV >= 0) || math.IsInf(c.CV, 0) {
				t.Fatalf("200 with %s meanResponse %v cv %v for %q", cls, c.MeanResponse, c.CV, body)
			}
		}
	})
}

// finitePositive reports 0 < v < +Inf.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// FuzzPlanBody drives POST /v1/plan, grid and deadline search, single-job
// and workflow, through the full handler on FuzzPredictBody's oracle, with
// X-Deadline-Ms 200. On a 200 every candidate without err carries a
// finite, positive responseTime and finite cost and nodeSeconds.
func FuzzPlanBody(f *testing.F) {
	for _, tc := range goldenHTTPCases {
		if tc.path == "/v1/plan" {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"cluster":{"nodes":4},"nodes":[2,4,6,8,10,12],"deadlineSec":300,
		"workflow":{"stages":[{"name":"a","job":{"inputMB":512}},{"name":"b","job":{"inputMB":512}}],"edges":[{"from":"a","to":"b"}]}}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		out, ok := serveBody(t, h, "/v1/plan", "200", body, &planWire{})
		if !ok {
			return
		}
		var res PlanResponse
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("200 without a plan (%v): %s", err, out)
		}
		for _, c := range res.Candidates {
			if c.Err != "" {
				continue
			}
			if !finitePositive(c.ResponseTime) || math.IsNaN(c.Cost) || math.IsInf(c.Cost, 0) ||
				math.IsNaN(c.NodeSeconds) || math.IsInf(c.NodeSeconds, 0) {
				t.Fatalf("200 with candidate %+v for %q", c, body)
			}
		}
	})
}

// FuzzSimulateBody drives POST /v1/simulate, with its faults block,
// through the full handler on FuzzPredictBody's oracle, with X-Deadline-Ms
// 200. A 200 carries a finite, positive meanResponse, makespan, quantiles
// and per-job response.
func FuzzSimulateBody(f *testing.F) {
	for _, tc := range goldenHTTPCases {
		if tc.path == "/v1/simulate" {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"cluster":{"nodes":2},"job":{"inputMB":512,"reduces":2},"numJobs":2,"seed":4,"reps":2,"policy":"fair",
		"faults":{"nodeMTTFSec":600,"repairDelaySec":30,"stragglerProb":0.1,"stragglerAlpha":2,"speculation":true}}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		out, ok := serveBody(t, h, "/v1/simulate", "200", body, &simulateWire{})
		if !ok {
			return
		}
		var res simulateResultWire
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("200 without a simulation (%v): %s", err, out)
		}
		vals := []float64{res.MeanResponse, res.Makespan, res.Quantiles.P50, res.Quantiles.P95, res.Quantiles.P99}
		for _, j := range res.Jobs {
			vals = append(vals, j.Response)
		}
		for _, v := range vals {
			if !finitePositive(v) {
				t.Fatalf("200 with a time of %v for %q: %s", v, body, out)
			}
		}
	})
}
