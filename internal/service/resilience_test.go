package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hadoop2perf/internal/admit"
	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/workload"
)

// TestErrorEnvelopeContract pins the wire shape of every load-rejection
// status: 503 (admission shed) and 504 (deadline) both carry the structured JSON envelope — error text, requestId echoing the
// response header, a numeric retryAfterSec — plus a Retry-After header of
// at least one second.
func TestErrorEnvelopeContract(t *testing.T) {
	// Big enough that the simulation cannot finish inside the 60ms server
	// timeout on any hardware, yet under the MaxModelCells ceiling; the
	// context abort produces the 504.
	heavySim := `{"cluster":{"nodes":64},"job":{"inputMB":262144},"numJobs":4,"reps":6,"seed":9}`
	predict := `{"cluster":{"nodes":2},"job":{"inputMB":256}}`

	cases := []struct {
		name       string
		wantStatus int
		wantReason string
		fire       func(t *testing.T) *http.Response
	}{
		{"queue full", http.StatusServiceUnavailable, admit.ReasonQueueFull, func(t *testing.T) *http.Response {
			// A bound below one expensive request's cost sheds the very
			// first simulate with no concurrency choreography.
			svc := New(Options{Workers: 2, AdmitMaxQueueCost: 1})
			ts := httptest.NewServer(NewHandler(svc, ServerConfig{}))
			t.Cleanup(ts.Close)
			return mustPost(t, ts.URL+"/v1/simulate", `{"cluster":{"nodes":2},"job":{"inputMB":256},"reps":1}`)
		}},
		{"draining", http.StatusServiceUnavailable, admit.ReasonDraining, func(t *testing.T) *http.Response {
			svc := New(Options{Workers: 2})
			ts := httptest.NewServer(NewHandler(svc, ServerConfig{}))
			t.Cleanup(ts.Close)
			svc.StartDrain()
			return mustPost(t, ts.URL+"/v1/predict", predict)
		}},
		{"deadline timeout", http.StatusGatewayTimeout, "", func(t *testing.T) *http.Response {
			svc := New(Options{Workers: 2})
			ts := httptest.NewServer(NewHandler(svc, ServerConfig{Timeout: 60 * time.Millisecond}))
			t.Cleanup(ts.Close)
			return mustPost(t, ts.URL+"/v1/simulate", heavySim)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.fire(t)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decode body: %v", err)
			}
			if msg, _ := body["error"].(string); msg == "" {
				t.Errorf("body error = %v, want non-empty", body["error"])
			}
			id, _ := body["requestId"].(string)
			if id == "" || id != resp.Header.Get(RequestIDHeader) {
				t.Errorf("body requestId %q vs header %q", id, resp.Header.Get(RequestIDHeader))
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
			}
			sec, ok := body["retryAfterSec"].(float64)
			if !ok || sec < 1 {
				t.Errorf("body retryAfterSec = %v, want number >= 1", body["retryAfterSec"])
			}
			if reason, _ := body["reason"].(string); reason != tc.wantReason {
				t.Errorf("body reason = %q, want %q", reason, tc.wantReason)
			}
		})
	}
}

func mustPost(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCacheHitsNeverWaitForSlots pins the lazy-slot contract: a worker
// slot is taken inside the compute, on a miss only. With every slot held
// through the admission controller, a cached /v1/predict still answers 200
// from the cache, while a miss waits for a slot until its 50 ms budget
// runs out and answers 504.
func TestCacheHitsNeverWaitForSlots(t *testing.T) {
	svc := New(Options{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{}))
	t.Cleanup(ts.Close)
	hit := `{"cluster":{"nodes":2},"job":{"inputMB":256}}`
	if status, body := postJSON(t, ts.URL+"/v1/predict", hit); status != http.StatusOK {
		t.Fatalf("priming predict = %d %v", status, body)
	}
	for range 2 {
		if _, err := svc.admission.Acquire(t.Context()); err != nil {
			t.Fatal(err)
		}
		defer svc.admission.Release()
	}

	status, body := postJSON(t, ts.URL+"/v1/predict", hit)
	if status != http.StatusOK || body["cached"] != true {
		t.Errorf("cached predict under saturation = %d %v, want 200 cached", status, body)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict",
		strings.NewReader(`{"cluster":{"nodes":3},"job":{"inputMB":256}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("miss under saturation = %d, want 504", resp.StatusCode)
	}
}

// TestBreakerTripAndRecoverService walks the circuit breaker through the
// service layer: consecutive simulator timeouts open it, simulate answers
// degrade to the model-only fallback (flagged, uncached), and a clean run
// after the cooldown closes it again — all visible in Metrics.
func TestBreakerTripAndRecoverService(t *testing.T) {
	const cooldown = 60 * time.Millisecond
	s := New(Options{Workers: 2, BreakerThreshold: 2, BreakerCooldown: cooldown})
	spec := cluster.Default(2)
	job := testJob(t, 512, 2)
	simReq := func(seed int64) SimulateRequest {
		return SimulateRequest{Spec: spec, Jobs: []workload.Job{job}, Seed: seed, Reps: 1}
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := s.Simulate(expired, simReq(seed)); err == nil {
			t.Fatalf("seed %d: expired-deadline simulate succeeded", seed)
		}
	}
	m := s.Metrics()
	if m.BreakerTrips < 1 || m.BreakerStateCode != admit.StateOpen {
		t.Fatalf("after %d timeouts: trips=%d state=%s, want open", 2, m.BreakerTrips, m.BreakerState)
	}

	// Open breaker: simulator-backed answers fall back to the model,
	// flagged Degraded and kept out of the cache.
	deg, err := s.Simulate(context.Background(), simReq(3))
	if err != nil {
		t.Fatalf("degraded simulate: %v", err)
	}
	if !deg.Degraded {
		t.Fatal("simulate while breaker open was not flagged degraded")
	}
	if deg.Result.Makespan <= 0 {
		t.Fatalf("degraded makespan = %v", deg.Result.Makespan)
	}
	if m := s.Metrics(); m.DegradedResponses < 1 {
		t.Errorf("DegradedResponses = %d, want >= 1", m.DegradedResponses)
	}

	time.Sleep(cooldown + 30*time.Millisecond)
	real, err := s.Simulate(context.Background(), simReq(3))
	if err != nil {
		t.Fatalf("recovery simulate: %v", err)
	}
	if real.Degraded {
		t.Fatal("simulate after cooldown still degraded (degraded answer was cached?)")
	}
	if m := s.Metrics(); m.BreakerStateCode != admit.StateClosed {
		t.Errorf("state after recovery = %s, want closed", m.BreakerState)
	}
}

// TestDegradedCompareNotCached: a comparison served while the breaker is
// open is flagged Degraded and never cached, so a repeat is degraded afresh
// and the first comparison after the cooldown runs a real simulation and is
// the one that gets cached.
func TestDegradedCompareNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed comparison in -short mode")
	}
	const cooldown = 60 * time.Millisecond
	s := New(Options{Workers: 2, BreakerThreshold: 2, BreakerCooldown: cooldown})
	spec := cluster.Default(2)
	job := testJob(t, 512, 2)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for seed := int64(1); seed <= 2; seed++ {
		s.Simulate(expired, SimulateRequest{Spec: spec, Jobs: []workload.Job{job}, Seed: seed, Reps: 1})
	}
	if m := s.Metrics(); m.BreakerStateCode != admit.StateOpen {
		t.Fatalf("breaker %s after two timeouts, want open", m.BreakerState)
	}

	req := CompareRequest{Spec: spec, Job: job, Seed: 3, Reps: 1}
	for i := range 2 {
		resp, err := s.Compare(context.Background(), req)
		if err != nil {
			t.Fatalf("degraded compare %d: %v", i, err)
		}
		if !resp.Degraded || resp.Cached {
			t.Fatalf("compare %d while open = degraded %v cached %v, want degraded and uncached", i, resp.Degraded, resp.Cached)
		}
	}
	if m := s.Metrics(); m.CacheEntries != 1 {
		// Only the degraded simulate's model fallback (a plain predict) is stored.
		t.Errorf("cache entries = %d after degraded compares, want 1", m.CacheEntries)
	}

	time.Sleep(cooldown + 30*time.Millisecond)
	for i, wantCached := range []bool{false, true} {
		resp, err := s.Compare(context.Background(), req)
		if err != nil {
			t.Fatalf("recovery compare %d: %v", i, err)
		}
		if resp.Degraded || resp.Cached != wantCached {
			t.Errorf("compare %d after cooldown = degraded %v cached %v, want real, cached %v", i, resp.Degraded, resp.Cached, wantCached)
		}
	}
}

// TestReadyzStates pins the liveness/readiness split: /healthz answers 200
// through every state, while /readyz degrades to 503 with a status of
// "overloaded" (admission queue at its bound) or "draining" (shutdown).
func TestReadyzStates(t *testing.T) {
	svc := New(Options{Workers: 2, AdmitMaxQueueCost: 8})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{}))
	t.Cleanup(ts.Close)

	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	healthzOK := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d, want 200 regardless of readiness", resp.StatusCode)
		}
	}

	if code, status := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("idle readyz = %d %q, want 200 ready", code, status)
	}

	// One expensive admission fills the 8-unit bound: overloaded, not dead.
	ticket, err := svc.admission.Admit(context.Background(), admit.ClassExpensive)
	if err != nil {
		t.Fatal(err)
	}
	if code, status := readyz(); code != http.StatusServiceUnavailable || status != "overloaded" {
		t.Errorf("saturated readyz = %d %q, want 503 overloaded", code, status)
	}
	healthzOK()
	ticket.Done()
	if code, status := readyz(); code != http.StatusOK || status != "ready" {
		t.Errorf("post-release readyz = %d %q, want 200 ready", code, status)
	}

	svc.StartDrain()
	if code, status := readyz(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Errorf("draining readyz = %d %q, want 503 draining", code, status)
	}
	healthzOK()
}

// TestPlanPartialOnDeadline pins graceful plan degradation: when the
// request deadline expires mid-sweep, candidates already answered (here:
// from cache) are returned with DeadlineExceeded=true instead of the whole
// plan collapsing into a 504 with nothing to show.
func TestPlanPartialOnDeadline(t *testing.T) {
	// High threshold: the deliberate timeouts below must not trip the
	// breaker and turn the miss path into degraded model answers.
	s := New(Options{Workers: 2, BreakerThreshold: 100})
	job := testJob(t, 1024, 2)
	plan := func(nodes []int) PlanRequest {
		return PlanRequest{
			Spec: cluster.Default(2), Job: job,
			Nodes:        nodes,
			UseSimulator: true, Seed: 5, Reps: 1,
		}
	}

	// Warm the 2-node candidate's simulation into the cache.
	if _, err := s.Plan(context.Background(), plan([]int{2})); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	resp, err := s.Plan(expired, plan([]int{2, 4}))
	if err != nil {
		t.Fatalf("partial plan should not error: %v", err)
	}
	if !resp.DeadlineExceeded {
		t.Fatal("DeadlineExceeded not set on a deadline-cut plan")
	}
	if resp.Evaluated != 1 {
		t.Fatalf("Evaluated = %d, want 1 (the cached candidate)", resp.Evaluated)
	}
	if len(resp.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(resp.Candidates))
	}
	var evaluated, failed int
	for _, c := range resp.Candidates {
		if c.Err == "" {
			evaluated++
			if c.Nodes != 2 {
				t.Errorf("surviving candidate nodes = %d, want the pre-warmed 2", c.Nodes)
			}
			if !c.Cached {
				t.Error("surviving candidate not marked cached")
			}
		} else {
			failed++
		}
	}
	if evaluated != 1 || failed != 1 {
		t.Errorf("candidate split = %d evaluated / %d failed, want 1/1", evaluated, failed)
	}

	// A plan with no deadline pressure on the same service stays clean.
	full, err := s.Plan(context.Background(), plan([]int{2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if full.DeadlineExceeded {
		t.Error("unpressured plan flagged DeadlineExceeded")
	}
	if full.Evaluated != 2 {
		t.Errorf("unpressured Evaluated = %d, want 2", full.Evaluated)
	}
}

// lazyBody is a request body of size bytes, produced on demand, that
// counts how many of them the handler read.
type lazyBody struct{ size, read int64 }

func (b *lazyBody) Read(p []byte) (int, error) {
	n := min(int64(len(p)), b.size-b.read)
	if n <= 0 {
		return 0, io.EOF
	}
	for i := range p[:n] {
		p[i] = ' '
	}
	b.read += n
	return int(n), nil
}

// TestShedReadsNoBody pins the order of the wire boundary: admission runs
// on the headers alone, so a draining service or a full admission queue
// answers every POST route with the structured 503 without reading one
// byte of its body, whatever the body's size.
func TestShedReadsNoBody(t *testing.T) {
	const size = 15 << 20
	routes := []string{"/v1/predict", "/v1/simulate", "/v1/compare", "/v1/plan", "/v1/calibrate"}
	cases := []struct {
		reason string
		svc    func(t *testing.T) *Service
	}{
		{admit.ReasonDraining, func(t *testing.T) *Service {
			svc := New(Options{Workers: 2})
			svc.StartDrain()
			return svc
		}},
		{admit.ReasonQueueFull, func(t *testing.T) *Service {
			// One expensive ticket fills a bound of 8 units, so even a
			// 1-unit predict is shed.
			svc := New(Options{Workers: 2, AdmitMaxQueueCost: admit.DefaultExpensiveCost})
			ticket, err := svc.admission.Admit(t.Context(), admit.ClassExpensive)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ticket.Done)
			return svc
		}},
	}
	for _, tc := range cases {
		h := NewHandler(tc.svc(t), ServerConfig{})
		for _, path := range routes {
			body := &lazyBody{size: size}
			r := httptest.NewRequest(http.MethodPost, path, body)
			r.ContentLength = size
			w := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(w, r)
			elapsed := time.Since(start)
			if w.Code != http.StatusServiceUnavailable {
				t.Fatalf("%s %s: status %d, want 503: %s", tc.reason, path, w.Code, w.Body.Bytes())
			}
			var e errorWire
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Reason != tc.reason || e.RetryAfterSec < 1 {
				t.Errorf("%s %s: body %s (%v), want the structured shed", tc.reason, path, w.Body.Bytes(), err)
			}
			if body.read != 0 {
				t.Errorf("%s %s: a shed read %d body bytes, want 0", tc.reason, path, body.read)
			}
			if path == "/v1/calibrate" {
				t.Logf("%s: a %d MiB calibrate body shed in %v", tc.reason, size>>20, elapsed)
			}
		}
	}
}

// TestStalledBodyTimesOut sends an admitted request over a real socket
// with X-Deadline-Ms 100 and then stalls its body. The body read is bounded
// by the request's own budget, so the answer is the structured 504 within
// that budget, and the admitted cost returns to the controller.
func TestStalledBodyTimesOut(t *testing.T) {
	svc := New(Options{Workers: 2})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{}))
	t.Cleanup(ts.Close)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The declared body is 64 bytes; only its first 10 are ever sent.
	if _, err := io.WriteString(conn, "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
		DeadlineHeader+": 100\r\nContent-Length: 64\r\n\r\n{\"cluster\""); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	var e errorWire
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" || e.RetryAfterSec < 1 {
		t.Errorf("body %s (%v), want the structured 504", raw, err)
	}
	if elapsed > 100*time.Millisecond+time.Second {
		t.Errorf("answered after %v, want within the 100ms budget plus slack", elapsed)
	}
	// The server closes a connection whose body it did not finish; its EOF
	// means the handler has returned and settled its ticket.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	if q := svc.Metrics().Admission.QueuedCost; q != 0 {
		t.Errorf("QueuedCost = %d after the stalled request, want 0", q)
	}
}

// deadlineRecorder is a recorder whose "connection" takes read deadlines.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadline time.Time
}

func (d *deadlineRecorder) SetReadDeadline(t time.Time) error {
	d.deadline = t
	return nil
}

// setReadDeadline finds a connection's SetReadDeadline through the trace
// middleware's wrapper, and on an in-process writer with no connection it
// does nothing and allocates nothing (http.ResponseController allocates a
// wrapped ErrNotSupported there on every request). TestStalledBodyTimesOut
// covers a real socket.
func TestSetReadDeadline(t *testing.T) {
	deadline := time.Now().Add(time.Second)
	conn := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	setReadDeadline(&traceWriter{ResponseWriter: conn}, deadline)
	if !conn.deadline.Equal(deadline) {
		t.Errorf("deadline %v through the trace wrapper, want %v", conn.deadline, deadline)
	}
	var w http.ResponseWriter = &traceWriter{ResponseWriter: httptest.NewRecorder()}
	if allocs := testing.AllocsPerRun(100, func() { setReadDeadline(w, deadline) }); allocs != 0 {
		t.Errorf("%.0f allocations per call on an in-process writer, want 0", allocs)
	}
}
