// Command mrbench is an open-loop load generator and resilience harness for
// mrserved. It drives a request mix of cheap predictions and expensive
// simulations at a fixed arrival rate (open loop: arrivals do not wait for
// completions, so the server's shedding behaviour — not the client's
// patience — sets the observed throughput), retries shed requests with
// jittered exponential backoff that honors the server's Retry-After hint,
// and reports latency quantiles split into accepted and shed outcomes
// together with the degraded response count.
//
// Two modes:
//
//	mrbench -target http://host:8080 -rate 200 -duration 30s
//	    load-test a running mrserved and print the report
//	mrbench -selfcheck -duration 20s
//	    start an in-process server sized to overload quickly, then assert
//	    the resilience contract end to end: sheds are fast (<10ms) and
//	    carry Retry-After, accepted p99 under 2x-capacity load stays
//	    within 3x the uncontended p99, a burst of heavy comparisons is
//	    shed rather than queued in front of a predict stream (whose
//	    accepted p99 stays within 3x its uncontended p99), the simulator
//	    circuit breaker trips and recovers, and drain leaves no goroutines
//	    behind.
//	    Exits non-zero on any violation; CI runs this as the soak gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hadoop2perf/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrbench: ")

	var (
		target    = flag.String("target", "", "base URL of a running mrserved (e.g. http://127.0.0.1:8080)")
		rate      = flag.Float64("rate", 100, "open-loop arrival rate in req/s")
		duration  = flag.Duration("duration", 20*time.Second, "load duration (selfcheck: overload-phase duration)")
		expEvery  = flag.Int("expensive-every", 5, "every Nth request is an expensive simulate (others are cheap predicts)")
		retries   = flag.Int("max-retries", 3, "retry budget per request after a 503 shed (0 = never retry)")
		deadline  = flag.Int("deadline-ms", 0, "client deadline sent as X-Deadline-Ms on every request (0 = none)")
		jsonOut   = flag.Bool("json", false, "print the report as JSON instead of text")
		selfcheck = flag.Bool("selfcheck", false, "run the in-process resilience soak and exit non-zero on violations")
	)
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(*duration); err != nil {
			log.Fatalf("selfcheck FAILED: %v", err)
		}
		log.Printf("selfcheck passed")
		return
	}
	if *target == "" {
		log.Fatal("either -target or -selfcheck is required")
	}
	b := newBench(*target)
	b.expensiveEvery = *expEvery
	b.maxRetries = *retries
	b.deadlineMS = *deadline
	b.run(*duration, *rate)
	rep := b.col.report()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(rep.String())
}

// bench issues the request mix against one target and funnels outcomes into
// its collector. Request bodies vary by sequence number so the server's LRU
// cache does not collapse the load into a single computed key.
type bench struct {
	client         *http.Client
	target         string
	expensiveEvery int
	maxRetries     int
	deadlineMS     int
	// freshKeys makes every predict body distinct, so each one is a cache
	// miss that needs a worker slot.
	freshKeys bool
	col       *collector

	mu  sync.Mutex
	seq int
}

func newBench(target string) *bench {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 256 // open-loop bursts reuse connections instead of dial storms
	return &bench{
		client:         &http.Client{Timeout: 2 * time.Minute, Transport: tr},
		target:         strings.TrimRight(target, "/"),
		expensiveEvery: 5,
		col:            newCollector(),
	}
}

func (b *bench) next() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	return b.seq
}

// run drives the open loop: one goroutine per arrival at a fixed interval.
func (b *bench) run(d time.Duration, rate float64) {
	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for time.Now().Before(stop) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.issue(b.next())
		}()
		time.Sleep(interval)
	}
	wg.Wait()
}

// issue sends request n, retrying sheds with jittered exponential backoff.
// When the server supplies Retry-After, the wait honors it as a floor.
func (b *bench) issue(n int) {
	path, body := b.request(n)
	backoff := 50 * time.Millisecond
	attempts := 0
	for {
		start := time.Now()
		status, hdr, resp, err := b.post(path, body)
		lat := time.Since(start)
		if err != nil {
			b.col.fail(err)
			return
		}
		if status != http.StatusServiceUnavailable {
			b.col.final(status, lat, resp, attempts)
			return
		}
		ra := hdr.Get("Retry-After")
		b.col.shed(status, lat, ra != "")
		if attempts >= b.maxRetries {
			return
		}
		attempts++
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if sec, err := strconv.Atoi(ra); err == nil && sec >= 1 {
			if hint := time.Duration(sec) * time.Second; hint > wait {
				wait = hint
			}
		}
		time.Sleep(wait)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// request builds the nth request: every expensiveEvery-th is a simulate,
// the rest are predicts, with sizes cycled so cache keys differ (and never
// repeat under freshKeys).
func (b *bench) request(n int) (path, body string) {
	if b.expensiveEvery > 0 && n%b.expensiveEvery == 0 {
		// Sized so the discrete-event run costs tens of milliseconds of wall
		// clock: enough to hold a worker and make queueing observable.
		return "/v1/simulate", fmt.Sprintf(
			`{"cluster":{"nodes":32},"job":{"inputMB":%d},"reps":2,"seed":%d}`,
			65536+(n%16)*1024, n)
	}
	inputMB := 128 + (n%32)*32
	if b.freshKeys {
		inputMB = 4096 + n // above every cycled size
	}
	return "/v1/predict", fmt.Sprintf(
		`{"cluster":{"nodes":%d},"job":{"inputMB":%d}}`, 4+n%8, inputMB)
}

func (b *bench) post(path, body string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.target+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if b.deadlineMS > 0 {
		req.Header.Set(service.DeadlineHeader, strconv.Itoa(b.deadlineMS))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// collector aggregates per-attempt and per-request outcomes.
type collector struct {
	mu                sync.Mutex
	accepted          []time.Duration
	shedLat           []time.Duration
	statuses          map[int]int
	shedMissingHint   int
	degraded          int
	retried, failures int
}

func newCollector() *collector { return &collector{statuses: make(map[int]int)} }

func (c *collector) final(status int, lat time.Duration, body []byte, attempts int) {
	var flags struct {
		Degraded bool `json:"degraded"`
	}
	_ = json.Unmarshal(body, &flags)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statuses[status]++
	if attempts > 0 {
		c.retried++
	}
	if status >= 200 && status < 300 {
		c.accepted = append(c.accepted, lat)
		if flags.Degraded {
			c.degraded++
		}
	}
}

func (c *collector) shed(status int, lat time.Duration, hasHint bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statuses[status]++
	c.shedLat = append(c.shedLat, lat)
	if !hasHint {
		c.shedMissingHint++
	}
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
}

// Report is the benchmark summary; field names are stable for CI parsing.
type Report struct {
	Requests           int            `json:"requests"`
	Accepted           int            `json:"accepted"`
	AcceptedP50Ms      float64        `json:"acceptedP50Ms"`
	AcceptedP95Ms      float64        `json:"acceptedP95Ms"`
	AcceptedP99Ms      float64        `json:"acceptedP99Ms"`
	ShedAttempts       int            `json:"shedAttempts"`
	ShedP50Ms          float64        `json:"shedP50Ms"`
	ShedP99Ms          float64        `json:"shedP99Ms"`
	ShedMissingHint    int            `json:"shedMissingRetryAfter"`
	DegradedResponses  int            `json:"degradedResponses"`
	RetriedRequests    int            `json:"retriedRequests"`
	TransportFailures  int            `json:"transportFailures"`
	StatusDistribution map[string]int `json:"statusDistribution"`
}

func (c *collector) report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{
		Accepted:           len(c.accepted),
		AcceptedP50Ms:      quantileMs(c.accepted, 0.50),
		AcceptedP95Ms:      quantileMs(c.accepted, 0.95),
		AcceptedP99Ms:      quantileMs(c.accepted, 0.99),
		ShedAttempts:       len(c.shedLat),
		ShedP50Ms:          quantileMs(c.shedLat, 0.50),
		ShedP99Ms:          quantileMs(c.shedLat, 0.99),
		ShedMissingHint:    c.shedMissingHint,
		DegradedResponses:  c.degraded,
		RetriedRequests:    c.retried,
		TransportFailures:  c.failures,
		StatusDistribution: make(map[string]int, len(c.statuses)),
	}
	for code, n := range c.statuses {
		rep.StatusDistribution[strconv.Itoa(code)] += n
		rep.Requests += n
	}
	rep.Requests += c.failures
	return rep
}

func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests         %d (accepted %d, shed attempts %d, transport failures %d)\n",
		r.Requests, r.Accepted, r.ShedAttempts, r.TransportFailures)
	fmt.Fprintf(&sb, "accepted latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		r.AcceptedP50Ms, r.AcceptedP95Ms, r.AcceptedP99Ms)
	fmt.Fprintf(&sb, "shed latency     p50 %.2fms  p99 %.2fms (missing Retry-After: %d)\n",
		r.ShedP50Ms, r.ShedP99Ms, r.ShedMissingHint)
	fmt.Fprintf(&sb, "degraded %d  retried %d\n",
		r.DegradedResponses, r.RetriedRequests)
	codes := make([]string, 0, len(r.StatusDistribution))
	for c := range r.StatusDistribution {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&sb, "  status %s: %d\n", c, r.StatusDistribution[c])
	}
	return sb.String()
}

// quantileMs returns the q-quantile (nearest rank) of d in milliseconds.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return float64(s[idx]) / float64(time.Millisecond)
}

// metricsView is the slice of the /v1/metrics JSON body the selfcheck reads.
type metricsView struct {
	BreakerStateCode  int    `json:"breakerStateCode"`
	BreakerState      string `json:"breakerState"`
	BreakerTrips      int64  `json:"breakerTrips"`
	DegradedResponses int64  `json:"degradedResponses"`
	Admission         struct {
		ShedQueueFull int64 `json:"shedQueueFull"`
		ShedDeadline  int64 `json:"shedDeadline"`
		ShedDraining  int64 `json:"shedDraining"`
	} `json:"admission"`
	StageDurations map[string]histView `json:"stageDurationsSeconds"`
}

// histView mirrors the cumulative histogram snapshot in the metrics JSON.
type histView struct {
	Buckets []struct {
		Le    float64 `json:"le"`
		Count int64   `json:"count"`
	} `json:"buckets"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// fractionUnder returns the fraction of observations at or below bound.
func (h histView) fractionUnder(bound float64) float64 {
	if h.Count == 0 {
		return 1
	}
	var under int64
	for _, b := range h.Buckets {
		if b.Le <= bound {
			under = b.Count
		}
	}
	return float64(under) / float64(h.Count)
}

// runSelfcheck starts a deliberately small in-process server and walks the
// resilience contract phase by phase. Any violation is an error; the process
// exit code is the CI signal.
func runSelfcheck(overloadFor time.Duration) error {
	// On boxes with very few cores, two CPU-bound simulations can starve
	// every other goroutine of scheduler slices for ~100ms stretches, which
	// pollutes client-observed latency with noise unrelated to the serving
	// path. More Ps restore kernel-granularity timeslicing.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	const (
		workers   = 2
		queueCost = 16 // two expensive units: shallow queue so overload sheds fast
		cooldown  = 300 * time.Millisecond
	)
	svc := service.New(service.Options{
		Workers:           workers,
		AdmitMaxQueueCost: queueCost,
		BreakerThreshold:  2,
		BreakerCooldown:   cooldown,
	})
	srv := httptest.NewServer(service.NewHandler(svc, service.ServerConfig{}))
	b := newBench(srv.URL)
	b.maxRetries = 0 // open-loop shed measurement: record rejections, don't retry
	var violations []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	// Phase 1: uncontended baseline — the same mix, strictly sequential.
	log.Printf("phase 1: uncontended baseline (40 sequential requests)")
	for i := 0; i < 40; i++ {
		b.issue(b.next())
	}
	base := b.col.report()
	check(base.Accepted == 40, "baseline: %d/40 accepted (sheds on an idle server)", base.Accepted)
	baseP99 := base.AcceptedP99Ms
	var baseMean float64
	for _, l := range b.col.accepted {
		baseMean += float64(l) / float64(time.Millisecond)
	}
	baseMean /= float64(len(b.col.accepted))

	// Phase 2: overload. A concurrent burst of expensive requests overfills
	// the admission queue deterministically, then an open loop at twice the
	// measured capacity runs for the soak duration.
	log.Printf("phase 2: overload burst + 2x-capacity open loop for %s", overloadFor)
	b.col = newCollector()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := b.next()
			burst := fmt.Sprintf(
				`{"cluster":{"nodes":64},"job":{"inputMB":262144},"reps":4,"seed":%d}`, n)
			start := time.Now()
			status, hdr, resp, err := b.post("/v1/simulate", burst)
			lat := time.Since(start)
			// The admitted saturators are the instrument, not the measured
			// load: only their rejections feed the report, so two deliberately
			// huge simulations don't pollute the accepted-latency quantiles.
			switch {
			case err != nil:
				b.col.fail(err)
			case status == http.StatusServiceUnavailable:
				b.col.shed(status, lat, hdr.Get("Retry-After") != "")
			default:
				_ = resp
			}
		}(i)
	}
	wg.Wait()
	capacity := float64(workers) / (baseMean / 1000) // req/s the pool sustains at baseline service time
	rate := 2 * capacity
	if rate > 500 {
		rate = 500
	}
	if rate < 50 {
		rate = 50
	}
	b.run(overloadFor, rate)
	over := b.col.report()
	check(over.ShedAttempts >= 5, "overload: only %d sheds (want >= 5)", over.ShedAttempts)
	check(over.ShedMissingHint == 0, "overload: %d shed responses missing Retry-After", over.ShedMissingHint)
	// Client-observed shed latency includes scheduler hops behind CPU-bound
	// simulations, so the median carries the fast-path claim here; the tail
	// of the rejection *decision* is asserted server-side below, and an
	// end-to-end <10ms tail is asserted on the idle drain path in phase 5.
	check(over.ShedP50Ms < 10, "overload: shed p50 %.2fms (want < 10ms)", over.ShedP50Ms)
	check(over.Accepted > 0, "overload: no requests accepted")
	effBase := baseP99
	if effBase < 10 {
		effBase = 10 // floor: sub-10ms baselines are scheduler noise, not signal
	}
	check(over.AcceptedP99Ms <= 3*effBase,
		"overload: accepted p99 %.2fms exceeds 3x uncontended p99 %.2fms", over.AcceptedP99Ms, effBase)
	check(over.TransportFailures == 0, "overload: %d transport failures", over.TransportFailures)
	if m, err := fetchMetrics(b); err != nil {
		check(false, "metrics after overload: %v", err)
	} else {
		frac := m.StageDurations["admission"].fractionUnder(0.01)
		check(frac >= 0.99, "admission decision: only %.1f%% under 10ms (want >= 99%%)", 100*frac)
	}
	log.Printf("phase 2 report:\n%s", over)

	// Phase 3: compare burst. A comparison runs the simulator's seeds plus
	// the joint model solve, several predict-misses' worth of work, and is
	// priced as such: a burst of heavy ones fills the admission bound and is
	// shed, instead of queueing for the worker slots in front of a stream of
	// predict misses running beside it.
	log.Printf("phase 3: compare burst beside a predict stream")
	b.expensiveEvery, b.freshKeys = 0, true
	b.col = newCollector()
	for i := 0; i < 20; i++ {
		b.issue(b.next())
	}
	predictBase := b.col.report()
	check(predictBase.Accepted == 20, "compare burst: %d/20 uncontended predicts accepted", predictBase.Accepted)
	b.col = newCollector()
	burst := newCollector()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			status, hdr, _, err := b.post("/v1/compare", fmt.Sprintf(
				`{"cluster":{"nodes":32},"job":{"inputMB":65536},"reps":2,"seed":%d}`, b.next()))
			switch {
			case err != nil:
				burst.fail(err)
			case status == http.StatusServiceUnavailable:
				burst.shed(status, time.Since(start), hdr.Get("Retry-After") != "")
			default:
				burst.final(status, time.Since(start), nil, 0)
			}
		}()
	}
	b.run(2*time.Second, 100)
	wg.Wait()
	cmp, stream := burst.report(), b.col.report()
	predictP99 := max(predictBase.AcceptedP99Ms, 10) // phase 2's noise floor
	check(stream.Accepted > 0, "compare burst: no predicts accepted")
	check(stream.AcceptedP99Ms <= 3*predictP99,
		"compare burst: accepted predict p99 %.2fms exceeds 3x uncontended p99 %.2fms", stream.AcceptedP99Ms, predictP99)
	check(cmp.ShedMissingHint+stream.ShedMissingHint == 0,
		"compare burst: %d shed responses missing Retry-After", cmp.ShedMissingHint+stream.ShedMissingHint)
	check(cmp.TransportFailures+stream.TransportFailures == 0,
		"compare burst: %d transport failures", cmp.TransportFailures+stream.TransportFailures)
	log.Printf("phase 3 compares:\n%s", cmp)
	log.Printf("phase 3 predict stream:\n%s", stream)

	// Phase 4: breaker trip and recovery. Impossible client deadlines force
	// consecutive simulator timeouts; while open, simulate answers degrade to
	// the model fallback; after the cooldown a clean run closes the breaker.
	log.Printf("phase 4: breaker trip and recovery")
	b.deadlineMS = 1
	for i := 0; i < 2; i++ {
		n := b.next()
		status, _, _, err := b.post("/v1/simulate", fmt.Sprintf(
			`{"cluster":{"nodes":64},"job":{"inputMB":262144},"reps":4,"seed":%d}`, n))
		check(err == nil, "breaker trip request: %v", err)
		check(status == http.StatusGatewayTimeout, "breaker trip request %d: status %d (want 504)", i, status)
	}
	b.deadlineMS = 0
	m, err := fetchMetrics(b)
	check(err == nil, "metrics after trip: %v", err)
	check(m.BreakerTrips >= 1, "breaker never tripped (trips=%d state=%s)", m.BreakerTrips, m.BreakerState)
	check(m.BreakerStateCode == 1, "breaker state after trip = %s (want open)", m.BreakerState)

	status, _, body, err := b.post("/v1/simulate", fmt.Sprintf(
		`{"cluster":{"nodes":8},"job":{"inputMB":512},"reps":1,"seed":%d}`, b.next()))
	check(err == nil && status == http.StatusOK, "degraded simulate: status %d err %v", status, err)
	var flags struct {
		Degraded bool `json:"degraded"`
	}
	_ = json.Unmarshal(body, &flags)
	check(flags.Degraded, "simulate while breaker open was not flagged degraded: %s", body)

	time.Sleep(cooldown + 200*time.Millisecond)
	status, _, body, err = b.post("/v1/simulate", fmt.Sprintf(
		`{"cluster":{"nodes":8},"job":{"inputMB":512},"reps":1,"seed":%d}`, b.next()))
	check(err == nil && status == http.StatusOK, "recovery simulate: status %d err %v", status, err)
	flags.Degraded = false
	_ = json.Unmarshal(body, &flags)
	check(!flags.Degraded, "simulate after cooldown still degraded: %s", body)
	m, err = fetchMetrics(b)
	check(err == nil, "metrics after recovery: %v", err)
	check(m.BreakerStateCode == 0, "breaker state after recovery = %s (want closed)", m.BreakerState)

	// Phase 5: drain. Readiness flips, new work is shed with reason
	// draining, and shutdown leaves no goroutines behind.
	log.Printf("phase 5: drain and goroutine-leak check")
	svc.StartDrain()
	resp, err := b.client.Get(srv.URL + "/readyz")
	if check(err == nil, "readyz: %v", err); err == nil {
		resp.Body.Close()
		check(resp.StatusCode == http.StatusServiceUnavailable, "readyz while draining = %d (want 503)", resp.StatusCode)
	}
	drainStart := time.Now()
	status, hdr, _, err := b.post("/v1/predict", `{"cluster":{"nodes":2},"job":{"inputMB":64}}`)
	drainLat := time.Since(drainStart)
	check(err == nil && status == http.StatusServiceUnavailable, "predict while draining: status %d err %v", status, err)
	check(hdr.Get("Retry-After") != "", "draining shed missing Retry-After")
	check(drainLat < 10*time.Millisecond, "idle drain shed took %v (want < 10ms)", drainLat)

	srv.Close()
	b.client.CloseIdleConnections()
	leakDeadline := time.Now().Add(3 * time.Second)
	leaked := -1
	for time.Now().Before(leakDeadline) {
		runtime.GC()
		if leaked = runtime.NumGoroutine() - baseGoroutines; leaked <= 3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	check(leaked <= 3, "goroutine leak after drain: %d above baseline %d", leaked, baseGoroutines)

	if len(violations) > 0 {
		return fmt.Errorf("%d violation(s):\n  - %s", len(violations), strings.Join(violations, "\n  - "))
	}
	return nil
}

func fetchMetrics(b *bench) (metricsView, error) {
	req, err := http.NewRequest(http.MethodGet, b.target+"/v1/metrics", nil)
	if err != nil {
		return metricsView{}, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return metricsView{}, err
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return metricsView{}, err
	}
	return m, nil
}
