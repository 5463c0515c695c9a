package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hadoop2perf/internal/trace"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Options{Workers: 4, CacheSize: 64})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{Timeout: 30 * time.Second}))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: non-JSON response %q", url, raw)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
	// Build info and uptime ride the liveness body.
	if v, _ := body["version"].(string); v == "" {
		t.Errorf("version = %v", body["version"])
	}
	if gv, _ := body["goVersion"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("goVersion = %v", body["goVersion"])
	}
	if up, ok := body["uptimeSeconds"].(float64); !ok || up < 0 {
		t.Errorf("uptimeSeconds = %v", body["uptimeSeconds"])
	}
	if id, _ := body["requestId"].(string); id == "" || id != resp.Header.Get(RequestIDHeader) {
		t.Errorf("requestId %v vs header %q", body["requestId"], resp.Header.Get(RequestIDHeader))
	}
}

// TestPredictRoundTrip is the end-to-end acceptance path: a predict call
// over real HTTP, repeated, with the repeat served from cache and the hit
// visible in /v1/metrics.
func TestPredictRoundTrip(t *testing.T) {
	svc, ts := newTestServer(t)
	req := `{"cluster":{"nodes":4},"job":{"inputMB":1024,"blockSizeMB":128,"reduces":4,"profile":"wordcount"},"numJobs":1,"estimator":"tripathi"}`

	status, body := postJSON(t, ts.URL+"/v1/predict", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	rt, _ := body["responseTime"].(float64)
	if rt <= 0 {
		t.Fatalf("responseTime = %v", body["responseTime"])
	}
	if body["cached"] != false {
		t.Error("first call reported cached")
	}
	if body["estimator"] != "tripathi" {
		t.Errorf("estimator echoed as %v", body["estimator"])
	}

	status, body = postJSON(t, ts.URL+"/v1/predict", req)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d", status)
	}
	if body["cached"] != true {
		t.Error("repeat not served from cache")
	}
	if got, _ := body["responseTime"].(float64); got != rt {
		t.Errorf("cached responseTime drifted: %v vs %v", got, rt)
	}

	// The hit is visible in the metrics endpoint (JSON body under Accept:
	// application/json; the bare-GET default is Prometheus text, covered by
	// TestMetricsPrometheus).
	mreq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mreq.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON metrics content type = %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.PredictRequests != 2 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.HitRate != 0.5 {
		t.Errorf("hit rate = %v", m.HitRate)
	}
	// The wire snapshot matches the engine's on the scalar counters. (The
	// snapshots themselves can't be compared whole: the engine observes the
	// /v1/metrics GET itself after its body was rendered, so the histograms
	// legitimately drift by one observation.)
	e := svc.Metrics()
	if m.PredictRequests != e.PredictRequests || m.CacheHits != e.CacheHits ||
		m.CacheMisses != e.CacheMisses || m.HitRate != e.HitRate ||
		m.ModelOuterIterations != e.ModelOuterIterations ||
		m.ModelInnerIterations != e.ModelInnerIterations {
		t.Errorf("wire metrics %+v != engine metrics %+v", m, e)
	}
	// Both histogram families are present in the JSON twin, and the predict
	// kind has recorded both round trips.
	if ph := m.RequestDurations["predict"]; ph.Count != 2 {
		t.Errorf("predict duration count = %d, want 2 (%+v)", ph.Count, m.RequestDurations)
	}
	if sh := m.StageDurations["model_solve"]; sh.Count != 1 {
		t.Errorf("model_solve duration count = %d, want 1 (one computed miss)", sh.Count)
	}
	if sh := m.StageDurations["cache_lookup"]; sh.Count != 2 {
		t.Errorf("cache_lookup duration count = %d, want 2", sh.Count)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"cluster":{"nodes":2},"job":{"inputMB":256,"reduces":1},"seed":1,"reps":1,"policy":"fifo"}`
	status, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	if mr, _ := body["meanResponse"].(float64); mr <= 0 {
		t.Errorf("meanResponse = %v", body["meanResponse"])
	}
	jobs, _ := body["jobs"].([]any)
	if len(jobs) != 1 {
		t.Errorf("jobs = %v", body["jobs"])
	}
}

func TestCompareEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed comparison in -short mode")
	}
	_, ts := newTestServer(t)
	req := `{"cluster":{"nodes":2},"job":{"inputMB":256,"reduces":1},"seed":1,"reps":1}`
	status, body := postJSON(t, ts.URL+"/v1/compare", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	for _, k := range []string{"Simulated", "ForkJoin", "Tripathi"} {
		if v, _ := body[k].(float64); v <= 0 {
			t.Errorf("%s = %v", k, body[k])
		}
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"cluster":{"nodes":4},"job":{"inputMB":2048,"reduces":4},
		"nodes":[2,4,6],"deadlineSec":100000}`
	status, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	cands, _ := body["candidates"].([]any)
	if len(cands) != 3 {
		t.Fatalf("candidates = %v", body["candidates"])
	}
	best, _ := body["best"].(map[string]any)
	if best == nil {
		t.Fatal("no best candidate")
	}
	if best["feasible"] != true {
		t.Errorf("best = %v", best)
	}
	if pol, _ := best["policy"].(string); pol != "fifo" {
		t.Errorf("policy serialized as %v", best["policy"])
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ name, url, body string }{
		{"garbage", "/v1/predict", `{`},
		{"unknown field", "/v1/predict", `{"clutser":{"nodes":4}}`},
		{"no cluster", "/v1/predict", `{"job":{"inputMB":512}}`},
		{"bad profile", "/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":512,"profile":"sortbench"}}`},
		{"bad estimator", "/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":512},"estimator":"oracle"}`},
		{"bad policy", "/v1/simulate", `{"cluster":{"nodes":2},"job":{"inputMB":512},"policy":"lifo"}`},
		{"zero input", "/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":0}}`},
		{"negative deadline", "/v1/plan", `{"cluster":{"nodes":2},"job":{"inputMB":512},"deadlineSec":-5}`},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+tc.url, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d body = %v", tc.name, status, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict status = %d", resp.StatusCode)
	}
}

func TestRequestTimeout(t *testing.T) {
	// A handler with a microscopic budget over a saturated single-worker
	// pool must answer 504, not hang.
	svc := New(Options{Workers: 1})
	if _, err := svc.admission.Acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer svc.admission.Release()
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{Timeout: 50 * time.Millisecond}))
	defer ts.Close()

	req := `{"cluster":{"nodes":2},"job":{"inputMB":256,"reduces":1}}`
	status, body := postJSON(t, ts.URL+"/v1/predict", req)
	if status != http.StatusGatewayTimeout {
		t.Errorf("status = %d body = %v", status, body)
	}
}

// calibrateBody builds a /v1/calibrate request body embedding a freshly
// simulated trace document under the given profile name.
func calibrateBody(t testing.TB, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, simTrace(t, 512, 1)); err != nil {
		t.Fatal(err)
	}
	return `{"name":"` + name + `","trace":` + buf.String() + `}`
}

// TestCalibrateEndToEnd walks the tentpole loop over real HTTP: calibrate a
// profile from a trace document, reference it from /v1/predict, watch the
// registry on /v1/profiles, and observe recalibration invalidating the
// cached profile-backed prediction.
func TestCalibrateEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	status, body := postJSON(t, ts.URL+"/v1/calibrate", calibrateBody(t, "prod-wc"))
	if status != http.StatusOK {
		t.Fatalf("calibrate status = %d body = %v", status, body)
	}
	prof, _ := body["profile"].(map[string]any)
	if prof == nil || prof["name"] != "prod-wc" || prof["version"] != float64(1) {
		t.Fatalf("profile = %v", body["profile"])
	}
	classes, _ := body["classes"].(map[string]any)
	for _, cls := range []string{"map", "shuffle-sort", "merge"} {
		cw, _ := classes[cls].(map[string]any)
		if cw == nil {
			t.Fatalf("class %s missing from %v", cls, classes)
		}
		if mr, _ := cw["meanResponse"].(float64); mr <= 0 {
			t.Errorf("%s meanResponse = %v", cls, cw["meanResponse"])
		}
	}

	// Profile-backed prediction differs from the static one and echoes its
	// profile snapshot.
	plainReq := `{"cluster":{"nodes":2},"job":{"inputMB":512,"reduces":2}}`
	profReq := `{"cluster":{"nodes":2},"job":{"inputMB":512,"reduces":2},"profile":"prod-wc"}`
	_, plain := postJSON(t, ts.URL+"/v1/predict", plainReq)
	status, withProf := postJSON(t, ts.URL+"/v1/predict", profReq)
	if status != http.StatusOK {
		t.Fatalf("profile predict status = %d body = %v", status, withProf)
	}
	if withProf["responseTime"] == plain["responseTime"] {
		t.Error("calibrated prediction identical to static one over the wire")
	}
	if withProf["profile"] != "prod-wc" || withProf["profileVersion"] != float64(1) {
		t.Errorf("profile echo = %v v%v", withProf["profile"], withProf["profileVersion"])
	}

	// The registry is visible.
	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Profiles []ProfileInfo `json:"profiles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Profiles) != 1 || listing.Profiles[0].Name != "prod-wc" {
		t.Fatalf("profiles = %+v", listing.Profiles)
	}

	// Warm the cache, recalibrate under the same name from a different
	// trace, and verify the warmed entry is no longer served.
	_, warm := postJSON(t, ts.URL+"/v1/predict", profReq)
	if warm["cached"] != true {
		t.Fatal("repeat profile predict not cached")
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, simTrace(t, 2048, 7)); err != nil {
		t.Fatal(err)
	}
	status, _ = postJSON(t, ts.URL+"/v1/calibrate", `{"name":"prod-wc","trace":`+buf.String()+`}`)
	if status != http.StatusOK {
		t.Fatalf("recalibrate status = %d", status)
	}
	_, after := postJSON(t, ts.URL+"/v1/predict", profReq)
	if after["cached"] != false {
		t.Error("stale cached prediction served after recalibration")
	}
	if after["profileVersion"] != float64(2) {
		t.Errorf("profileVersion = %v", after["profileVersion"])
	}
}

func TestCalibrateValidationOverWire(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ name, body string }{
		{"no trace", `{"name":"wc"}`},
		{"garbage trace", `{"name":"wc","trace":{"version":99,"result":{}}}`},
		{"no name", calibrateBody(t, "")},
		{"bad name", calibrateBody(t, "a b")},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+"/v1/calibrate", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d body = %v", tc.name, status, body)
		}
	}
	// Unknown profile references and simulate-side references fail loudly.
	status, _ := postJSON(t, ts.URL+"/v1/predict",
		`{"cluster":{"nodes":2},"job":{"inputMB":512},"profile":"ghost"}`)
	if status != http.StatusBadRequest {
		t.Errorf("unknown profile predict: status = %d", status)
	}
	status, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"cluster":{"nodes":2},"job":{"inputMB":512},"profile":"ghost"}`)
	if status != http.StatusBadRequest {
		t.Errorf("simulate with profile: status = %d body = %v", status, body)
	}
}

// A CV floor past trace.MaxCVFloor is a structured 400 at calibrate time:
// stored, it drove the fork/join estimate to +Inf (a 500 when encoded) and
// left Tripathi no finite fit. At the ceiling, both estimators answer a
// finite 200.
func TestCalibrateCVFloorCeiling(t *testing.T) {
	_, ts := newTestServer(t)
	withFloor := func(name, floor string) string {
		body := calibrateBody(t, name)
		return body[:len(body)-1] + `,"cvFloor":` + floor + `}`
	}
	for _, floor := range []string{"1e200", "10.5", "-1"} {
		status, body := postJSON(t, ts.URL+"/v1/calibrate", withFloor("huge", floor))
		if status != http.StatusBadRequest {
			t.Errorf("cvFloor %s: status = %d body = %v", floor, status, body)
		} else if msg, _ := body["error"].(string); !strings.Contains(msg, "CV floor") {
			t.Errorf("cvFloor %s: error %q does not name the CV floor", floor, msg)
		}
	}
	if status, body := postJSON(t, ts.URL+"/v1/calibrate", withFloor("wide", "10")); status != http.StatusOK {
		t.Fatalf("cvFloor 10: status = %d body = %v", status, body)
	}
	for _, est := range []string{"fork/join", "tripathi"} {
		status, body := postJSON(t, ts.URL+"/v1/predict",
			`{"cluster":{"nodes":2},"job":{"inputMB":512,"reduces":2},"profile":"wide","estimator":"`+est+`"}`)
		if status != http.StatusOK {
			t.Errorf("%s at the ceiling: status = %d body = %v", est, status, body)
			continue
		}
		if rt, _ := body["responseTime"].(float64); !(rt > 0) || math.IsInf(rt, 0) {
			t.Errorf("%s at the ceiling: responseTime = %v", est, body["responseTime"])
		}
	}
}

// Routes returns the method+pattern of every endpoint NewHandler registers,
// in registration order.
func Routes() []string {
	return []string{
		routeHealthz, routeReadyz, routeMetrics, routeProfiles,
		routePredict, routeSimulate, routeCompare, routePlan, routeCalibrate,
	}
}

// TestRoutesRegistered binds Routes() to the mux: every advertised pattern
// must resolve to a registered handler under its own method and path. It
// inspects the inner mux directly — NewHandler wraps it in the trace and
// recover middleware.
func TestRoutesRegistered(t *testing.T) {
	cfg := ServerConfig{}
	cfg.applyDefaults()
	mux := newMux(New(Options{Workers: 1}), cfg)
	for _, route := range Routes() {
		method, path, ok := strings.Cut(route, " ")
		if !ok {
			t.Fatalf("malformed route %q", route)
		}
		r := httptest.NewRequest(method, path, nil)
		if _, pattern := mux.Handler(r); pattern != route {
			t.Errorf("route %q resolves to pattern %q", route, pattern)
		}
	}
}

// TestRoutesDocumented holds docs/API.md to the registered route list: every
// route the mux serves must appear verbatim in the API reference.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md unreadable: %v", err)
	}
	for _, route := range Routes() {
		if !bytes.Contains(doc, []byte(route)) {
			t.Errorf("route %q not documented in docs/API.md", route)
		}
	}
}

// TestMetricsDocumented holds docs/API.md to the Prometheus exposition:
// every metric family writePrometheus emits must appear in the reference,
// so new counters cannot ship undocumented.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md unreadable: %v", err)
	}
	var buf bytes.Buffer
	if err := writePrometheus(&buf, Metrics{}); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		families++
		if !bytes.Contains(doc, []byte(name)) {
			t.Errorf("metric family %q not documented in docs/API.md", name)
		}
	}
	if families < 8 {
		t.Fatalf("only %d families parsed from the exposition; the checker is miswired", families)
	}
}

// TestCustomClusterSpecCamelCase: custom specs follow the API's camelCase
// convention like every other wire field.
func TestCustomClusterSpecCamelCase(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"cluster":{"custom":{
		"numNodes":3,
		"nodeCapacity":{"memoryMB":32768,"vcores":32},
		"mapContainer":{"memoryMB":4096,"vcores":2},
		"reduceContainer":{"memoryMB":4096,"vcores":4},
		"cpuPerNode":6,"diskPerNode":1,"diskMBps":240,"networkMBps":110
	}},"job":{"inputMB":512,"reduces":2}}`
	status, body := postJSON(t, ts.URL+"/v1/predict", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	if rt, _ := body["responseTime"].(float64); rt <= 0 {
		t.Errorf("responseTime = %v", body["responseTime"])
	}
}
