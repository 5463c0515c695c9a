package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hadoop2perf/internal/obs"
)

// TestRequestIDPropagation: a valid inbound X-Request-ID is adopted — echoed
// on the response header, in the JSON body, and visible end to end.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"cluster":{"nodes":2},"job":{"inputMB":256}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "caller-supplied-42" {
		t.Errorf("response header %s = %q, want the inbound ID", RequestIDHeader, got)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["requestId"] != "caller-supplied-42" {
		t.Errorf("body requestId = %v, want the inbound ID", out["requestId"])
	}
	if rt, _ := out["responseTime"].(float64); rt <= 0 {
		t.Errorf("envelope lost the payload: %v", out)
	}
}

// TestInvalidRequestIDReplaced pins the header-injection defense: an inbound
// X-Request-ID with invalid characters is replaced by a generated ID, never
// echoed back.
func TestInvalidRequestIDReplaced(t *testing.T) {
	_, ts := newTestServer(t)
	for _, bad := range []string{"has space", "quote\"y", strings.Repeat("x", 65)} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RequestIDHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Header.Get(RequestIDHeader)
		resp.Body.Close()
		if got == bad {
			t.Errorf("invalid inbound ID %q echoed back", bad)
		}
		if !obs.ValidRequestID(got) {
			t.Errorf("replacement ID %q is itself invalid", got)
		}
	}
}

// TestErrorResponsesCarryRequestID: 400s (and by the same writeError path
// every error status) carry the request ID in body and header.
func TestErrorResponsesCarryRequestID(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(`{"job":{"inputMB":512}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "err-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["requestId"] != "err-req-1" || out["error"] == "" {
		t.Errorf("error body = %v", out)
	}
}

// TestDebugTimings: ?debug=timings adds the per-stage breakdown to the
// response; without it the block is absent.
func TestDebugTimings(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"cluster":{"nodes":3},"job":{"inputMB":512,"reduces":2}}`

	status, plain := postJSON(t, ts.URL+"/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if _, present := plain["timings"]; present {
		t.Error("timings present without ?debug=timings")
	}

	status, dbg := postJSON(t, ts.URL+"/v1/predict?debug=timings", body)
	if status != http.StatusOK {
		t.Fatalf("debug status = %d", status)
	}
	timings, _ := dbg["timings"].(map[string]any)
	if timings == nil {
		t.Fatalf("no timings block in %v", dbg)
	}
	stages, _ := timings["stages"].(map[string]any)
	// This repeat request is a cache hit: the lookup stage must be present.
	cl, _ := stages["cache_lookup"].(map[string]any)
	if cl == nil {
		t.Fatalf("cache_lookup stage missing from %v", stages)
	}
	if spans, _ := cl["spans"].(float64); spans < 1 {
		t.Errorf("cache_lookup spans = %v", cl["spans"])
	}
	counts, _ := timings["counts"].(map[string]any)
	if hits, _ := counts["cacheHits"].(float64); hits != 1 {
		t.Errorf("counts = %v, want cacheHits 1", counts)
	}

	// A computed (miss) request exposes the solve stage and model counters.
	miss := `{"cluster":{"nodes":5},"job":{"inputMB":512,"reduces":2}}`
	_, dbg = postJSON(t, ts.URL+"/v1/predict?debug=timings", miss)
	timings, _ = dbg["timings"].(map[string]any)
	stages, _ = timings["stages"].(map[string]any)
	for _, want := range []string{"cache_lookup", "queue_wait", "model_solve"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stage %s missing from computed request: %v", want, stages)
		}
	}
	counts, _ = timings["counts"].(map[string]any)
	if n, _ := counts["outerIterations"].(float64); n < 1 {
		t.Errorf("outerIterations = %v", counts["outerIterations"])
	}
}

// TestPlanDebugTimings: a deadline plan's debug block carries the
// plan_search span and the model runs the search made; the per-combo
// evaluations are the response's candidates.
func TestPlanDebugTimings(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"cluster":{"nodes":4},"job":{"inputMB":2048,"reduces":1},
		"nodes":[2,3,4,5,6,7,8,9],"deadlineSec":100000}`
	status, body := postJSON(t, ts.URL+"/v1/plan?debug=timings", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	timings, _ := body["timings"].(map[string]any)
	stages, _ := timings["stages"].(map[string]any)
	if _, ok := stages["plan_search"]; !ok {
		t.Fatalf("plan_search stage missing: %v", stages)
	}
	counts, _ := timings["counts"].(map[string]any)
	cands, _ := body["candidates"].([]any)
	if len(cands) == 0 {
		t.Fatalf("no candidates in %v", body)
	}
	if n, _ := counts["predicts"].(float64); n < 1 || int(n) > len(cands) {
		t.Errorf("predicts = %v, want 1..%d (one per evaluated candidate at most)", counts["predicts"], len(cands))
	}
}

// TestAccessLog: with an AccessLog configured every request emits one
// structured line carrying the request ID and the trace's counters.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, obs.LogFormatJSON, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, CacheSize: 8})
	h := NewHandler(svc, ServerConfig{Timeout: 30 * time.Second, AccessLog: logger})

	body := `{"cluster":{"nodes":2},"job":{"inputMB":256}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set(RequestIDHeader, "logged-req-7")
	req.RemoteAddr = "10.1.1.1:1"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log %q not one JSON line: %v", buf.String(), err)
	}
	if line["requestId"] != "logged-req-7" {
		t.Errorf("log requestId = %v", line["requestId"])
	}
	if line["path"] != "/v1/predict" || line["status"] != float64(200) {
		t.Errorf("log line = %v", line)
	}
	if n, _ := line["cacheMisses"].(float64); n != 1 {
		t.Errorf("cacheMisses = %v, want 1 on first compute", line["cacheMisses"])
	}
	if n, _ := line["outerIterations"].(float64); n < 1 {
		t.Errorf("outerIterations = %v", line["outerIterations"])
	}

	// A slow request (threshold 0 is defaulted, so force a tiny one) logs at
	// Warn with the stage breakdown.
	buf.Reset()
	h = NewHandler(svc, ServerConfig{
		Timeout: 30 * time.Second, AccessLog: logger, SlowRequestThreshold: time.Nanosecond,
	})
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.RemoteAddr = "10.1.1.1:1"
	h.ServeHTTP(httptest.NewRecorder(), req)
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["level"] != "WARN" || line["slow"] != true {
		t.Errorf("slow line = %v", line)
	}
	if _, ok := line["stageSeconds"].(map[string]any); !ok {
		t.Errorf("slow line missing stage breakdown: %v", line)
	}
}

// TestQueueFull503Logging: shed load is attributable — a queue_full 503
// carries the request ID, and its access-log line names the same ID with
// status 503.
func TestQueueFull503Logging(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, obs.LogFormatJSON, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	// A bound below one expensive request's cost sheds every simulate.
	svc := New(Options{Workers: 1, CacheSize: 4, AdmitMaxQueueCost: 1})
	h := NewHandler(svc, ServerConfig{Timeout: 30 * time.Second, AccessLog: logger})

	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"cluster":{"nodes":2},"job":{"inputMB":256},"reps":1}`))
	req.Header.Set(RequestIDHeader, "shed-load-911")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", w.Code)
	}
	var out map[string]any
	if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["requestId"] != "shed-load-911" || out["reason"] != "queue_full" {
		t.Errorf("503 body requestId = %v reason = %v", out["requestId"], out["reason"])
	}
	if got := w.Header().Get(RequestIDHeader); got != "shed-load-911" {
		t.Errorf("503 header requestId = %q", got)
	}

	var line map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &line); err != nil {
		t.Fatalf("access log %q: %v", buf.String(), err)
	}
	if line["requestId"] != "shed-load-911" || line["status"] != float64(http.StatusServiceUnavailable) {
		t.Errorf("access-log line = %v, want requestId shed-load-911 and status 503", line)
	}
}

// TestMetricsHistogramExposition: both duration families ride the
// Prometheus text exposition with cumulative le buckets, +Inf, _sum and
// _count per series.
func TestMetricsHistogramExposition(t *testing.T) {
	_, ts := newTestServer(t)
	if status, _ := postJSON(t, ts.URL+"/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":256}}`); status != http.StatusOK {
		t.Fatalf("predict status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		`# TYPE mrserved_request_duration_seconds histogram`,
		`mrserved_request_duration_seconds_bucket{kind="predict",le="+Inf"} 1`,
		`mrserved_request_duration_seconds_count{kind="predict"} 1`,
		`mrserved_request_duration_seconds_sum{kind="predict"}`,
		`# TYPE mrserved_stage_duration_seconds histogram`,
		`mrserved_stage_duration_seconds_bucket{stage="model_solve",le="+Inf"} 1`,
		`mrserved_stage_duration_seconds_count{stage="cache_lookup"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Finite buckets are rendered for every configured bound.
	if got := strings.Count(text, `mrserved_request_duration_seconds_bucket{kind="predict",le=`); got != len(obs.DefaultLatencyBuckets())+1 {
		t.Errorf("predict bucket lines = %d, want %d (+Inf included)", got, len(obs.DefaultLatencyBuckets())+1)
	}
}

// TestNoGoroutineLeaks: the context/trace plumbing must not leak workers —
// after serving traffic (including detached simulator runs) and shutting the
// server down, the goroutine count returns to its baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	svc := New(Options{Workers: 4, CacheSize: 32})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{Timeout: 30 * time.Second}))
	client := ts.Client()
	for _, call := range []struct{ path, body string }{
		{"/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":256}}`},
		{"/v1/simulate", `{"cluster":{"nodes":2},"job":{"inputMB":256},"reps":1,"seed":1}`},
		{"/v1/plan", `{"cluster":{"nodes":4},"job":{"inputMB":1024,"reduces":2},"nodes":[2,4,6]}`},
	} {
		resp, err := client.Post(ts.URL+call.path, "application/json", strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", call.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	ts.Close()

	// Goroutines wind down asynchronously (HTTP keep-alive reapers, detached
	// sim runs); poll with a deadline instead of asserting immediately.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, now %d — serving path leaked", baseline, runtime.NumGoroutine())
}
