package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"hadoop2perf/internal/admit"
	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/fault"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/trace"
	"hadoop2perf/internal/workflow"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

// ServerConfig tunes the HTTP layer.
type ServerConfig struct {
	// Timeout bounds one request's handling, including queueing for a pool
	// slot and reading its body. Zero (the default) selects per-kind
	// budgets: 10s for the cheap model-backed predict and 30s for the
	// expensive simulator/plan-backed endpoints (simulate, compare, plan,
	// calibrate). A positive value applies uniformly to every kind. Either
	// way a client's X-Deadline-Ms header overrides the server default,
	// clamped to 5 minutes.
	Timeout time.Duration
	// AccessLog, when non-nil, receives one structured line per handled
	// request (request ID, method, path, status, duration, and the trace's
	// cache/iteration counters) plus a Warn line with the full
	// per-stage breakdown for requests slower than SlowRequestThreshold.
	// Nil disables access logging entirely, so
	// library users and benchmarks pay no logging cost.
	AccessLog *slog.Logger
	// SlowRequestThreshold is the latency past which a request logs at Warn
	// with its stage timings (default 10s; meaningful only with AccessLog).
	SlowRequestThreshold time.Duration
}

const (
	// defaultCheapTimeout and defaultExpensiveTimeout are the per-kind
	// handling budgets used when ServerConfig.Timeout is zero: model-backed
	// endpoints answer in milliseconds and deserve a tight bound; the
	// simulator and plan sweeps legitimately run for seconds.
	defaultCheapTimeout     = 10 * time.Second
	defaultExpensiveTimeout = 30 * time.Second
	// maxClientDeadline caps client-supplied deadline budgets so one caller
	// cannot pin a worker slot indefinitely.
	maxClientDeadline = 5 * time.Minute

	// maxBodyBytes bounds request bodies; maxCalibrateBodyBytes bounds
	// /v1/calibrate's, whose trace documents carry per-task records and
	// outgrow the request-sized cap long before they stop being reasonable
	// inputs.
	maxBodyBytes          = 1 << 20
	maxCalibrateBodyBytes = 16 << 20

	defaultSlowRequestThreshold = 10 * time.Second
)

// RequestIDHeader is the header mrserved reads a caller-supplied request ID
// from (when valid — see obs.ValidRequestID) and always echoes the
// effective ID on. The constant uses Go's canonical MIME spelling so
// Header.Set on the hot path never re-canonicalizes; header names are
// case-insensitive on the wire.
const RequestIDHeader = "X-Request-Id"

// DeadlineHeader carries a client-supplied handling budget in milliseconds,
// the only client budget there is. It wins over the server default,
// clamped to maxClientDeadline. Admission reads it before any body byte,
// so it prices a request from its headers alone; the budget then bounds
// the body read and rides the request context end to end (pool queueing,
// cache, model, simulator).
const DeadlineHeader = "X-Deadline-Ms"

// Route patterns of the mrserved HTTP API, in registration order. NewHandler
// registers exactly these; the tests list them to hold the mux and
// docs/API.md to one route set.
const (
	routeHealthz   = "GET /healthz"
	routeReadyz    = "GET /readyz"
	routeMetrics   = "GET /v1/metrics"
	routeProfiles  = "GET /v1/profiles"
	routePredict   = "POST /v1/predict"
	routeSimulate  = "POST /v1/simulate"
	routeCompare   = "POST /v1/compare"
	routePlan      = "POST /v1/plan"
	routeCalibrate = "POST /v1/calibrate"
)

// NewHandler builds the mrserved HTTP API over a Service:
//
//	GET  /healthz      — liveness (answers as long as the process serves)
//	GET  /readyz       — readiness: 503 while draining or overloaded
//	GET  /v1/metrics   — service counters: Prometheus text exposition by
//	                     default, JSON under Accept: application/json
//	GET  /v1/profiles  — live calibrated profiles (name, version, expiry)
//	POST /v1/predict   — analytic model prediction
//	POST /v1/simulate  — discrete-event simulator run (median of seeds)
//	POST /v1/compare   — model vs. simulator validation
//	POST /v1/plan      — parallel what-if grid search
//	POST /v1/calibrate — fit a named profile from a job-history trace
//
// docs/API.md is the complete wire reference.
func NewHandler(s *Service, cfg ServerConfig) http.Handler {
	cfg.applyDefaults()
	return traceMiddleware(s, cfg, recoverMiddleware(cfg, newMux(s, cfg)))
}

// applyDefaults fills the zero ServerConfig fields. Timeout deliberately
// keeps its zero value: zero selects the per-kind defaults at endpoint
// construction (see effectiveTimeout).
func (cfg *ServerConfig) applyDefaults() {
	if cfg.SlowRequestThreshold <= 0 {
		cfg.SlowRequestThreshold = defaultSlowRequestThreshold
	}
}

// newMux registers the route handlers (cfg must already have its defaults
// applied); NewHandler wraps the result in the trace and recover
// middleware.
func newMux(s *Service, cfg ServerConfig) *http.ServeMux {
	started := time.Now()
	version, goVersion := buildInfo()
	mux := http.NewServeMux()
	mux.HandleFunc(routeHealthz, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, healthWire{
			Status:        "ok",
			Version:       version,
			GoVersion:     goVersion,
			UptimeSeconds: time.Since(started).Seconds(),
		})
	})
	mux.HandleFunc(routeReadyz, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.Draining():
			writeJSON(w, r, http.StatusServiceUnavailable, readyWire{Status: "draining"})
		case s.Overloaded():
			writeJSON(w, r, http.StatusServiceUnavailable, readyWire{Status: "overloaded"})
		default:
			writeJSON(w, r, http.StatusOK, readyWire{Status: "ready"})
		}
	})
	mux.HandleFunc(routeMetrics, func(w http.ResponseWriter, r *http.Request) {
		m := s.Metrics()
		if wantsJSON(r.Header.Get("Accept")) {
			writeJSON(w, r, http.StatusOK, m)
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = writePrometheus(w, m)
	})
	mux.HandleFunc(routeProfiles, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, profilesWire{Profiles: s.Profiles()})
	})
	mux.HandleFunc(routePredict, jsonEndpoint(s, cfg, admit.ClassCheap, maxBodyBytes, func(ctx context.Context, req predictWire) (any, error) {
		pr, err := req.toRequest()
		if err != nil {
			return nil, err
		}
		resp, err := s.Predict(ctx, pr)
		if err != nil {
			return nil, err
		}
		return predictResultWire{
			ResponseTime:    resp.Prediction.ResponseTime,
			Iterations:      resp.Prediction.Iterations,
			InnerIterations: resp.Prediction.InnerIterations,
			Converged:       resp.Prediction.Converged,
			Estimator:       pr.Estimator,
			Cached:          resp.Cached,
			Profile:         resp.Profile,
			ProfileVersion:  resp.ProfileVersion,
			Workflow:        resp.Workflow,
		}, nil
	}))
	mux.HandleFunc(routeCalibrate, jsonEndpoint(s, cfg, admit.ClassExpensive, maxCalibrateBodyBytes, func(ctx context.Context, req calibrateWire) (any, error) {
		cr, err := req.toRequest()
		if err != nil {
			return nil, err
		}
		resp, err := s.Calibrate(ctx, cr)
		if err != nil {
			return nil, err
		}
		return calibrateResultWire{
			Profile: resp.Profile,
			Classes: classWire(resp.Classes),
		}, nil
	}))
	mux.HandleFunc(routeSimulate, jsonEndpoint(s, cfg, admit.ClassExpensive, maxBodyBytes, func(ctx context.Context, req simulateWire) (any, error) {
		sr, err := req.toRequest()
		if err != nil {
			return nil, err
		}
		resp, err := s.Simulate(ctx, sr)
		if err != nil {
			return nil, err
		}
		out := simulateResultWire{
			MeanResponse: resp.Result.MeanResponse(),
			Makespan:     resp.Result.Makespan,
			Events:       resp.Result.Events,
			Quantiles:    resp.Quantiles,
			FailedSeeds:  resp.FailedSeeds,
			Faults:       resp.Result.Faults,
			Cached:       resp.Cached,
			Degraded:     resp.Degraded,
		}
		for _, j := range resp.Result.Jobs {
			out.Jobs = append(out.Jobs, simJobWire{ID: j.JobID, Response: j.Response})
		}
		return out, nil
	}))
	mux.HandleFunc(routeCompare, jsonEndpoint(s, cfg, admit.ClassExpensive, maxBodyBytes, func(ctx context.Context, req compareWire) (any, error) {
		cr, err := req.toRequest()
		if err != nil {
			return nil, err
		}
		return s.Compare(ctx, cr)
	}))
	mux.HandleFunc(routePlan, jsonEndpoint(s, cfg, admit.ClassExpensive, maxBodyBytes, func(ctx context.Context, req planWire) (any, error) {
		pr, err := req.toRequest()
		if err != nil {
			return nil, err
		}
		return s.Plan(ctx, pr)
	}))
	return mux
}

// healthWire is the GET /healthz response body.
type healthWire struct {
	// Status is always "ok" when the handler answers at all.
	Status string `json:"status"`
	// Version is the serving module's build version ("unknown" for
	// non-module builds, e.g. go test binaries).
	Version string `json:"version"`
	// GoVersion is the toolchain the binary was built with.
	GoVersion string `json:"goVersion"`
	// UptimeSeconds is the age of this handler (seconds since NewHandler).
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// readyWire is the GET /readyz response body. Unlike /healthz (liveness:
// "is the process serving at all"), readiness answers "should a balancer
// route new traffic here" — 503 with status "draining" once shutdown drain
// began, or "overloaded" while the admission queue sits at its bound.
type readyWire struct {
	Status string `json:"status"` // "ready", "draining" or "overloaded"
}

// buildInfo extracts the module version and toolchain from the binary's
// embedded build metadata.
func buildInfo() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, goVersion
}

// traceWriter is the per-request wrapper the trace middleware hands down
// the handler stack: it carries the request's Trace to the response-writing
// layer (writeJSON splices the ID from here; jsonEndpoint threads it into
// the handler context) and records the status code for the access log. One
// small wrapper replaces both a cloned *http.Request and a separate
// status recorder — the trace must not tax the serving hot path.
type traceWriter struct {
	http.ResponseWriter
	trace  obs.Trace
	status int
}

// WriteHeader records the status before delegating.
func (tw *traceWriter) WriteHeader(code int) {
	tw.status = code
	tw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (tw *traceWriter) Unwrap() http.ResponseWriter { return tw.ResponseWriter }

// traceOf returns the request's Trace when w came through traceMiddleware
// (nil otherwise — a bare mux serves untraced).
func traceOf(w http.ResponseWriter) *obs.Trace {
	if tw, ok := w.(*traceWriter); ok {
		return &tw.trace
	}
	return nil
}

// kindOf maps a request path onto its request-histogram kind index (see
// RequestKinds for the label domain).
func kindOf(path string) int {
	switch path {
	case "/healthz", "/readyz":
		return kindHealthz
	case "/v1/metrics":
		return kindMetrics
	case "/v1/profiles":
		return kindProfiles
	case "/v1/predict":
		return kindPredict
	case "/v1/simulate":
		return kindSimulate
	case "/v1/compare":
		return kindCompare
	case "/v1/plan":
		return kindPlan
	case "/v1/calibrate":
		return kindCalibrate
	}
	return kindOther
}

// traceMiddleware is the outermost handler layer: it adopts a valid inbound
// X-Request-ID (or assigns a fresh one), hands an obs.Trace down the stack
// on the response writer (jsonEndpoint threads it into the handler context
// for the engine), echoes the ID on the response header, records the
// end-to-end latency into the kind's histogram, and emits the structured
// access-log line (plus a Warn line with the stage breakdown for requests
// over SlowRequestThreshold).
func traceMiddleware(s *Service, cfg ServerConfig, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		tw := &traceWriter{ResponseWriter: w, status: http.StatusOK}
		tw.trace.ID = id
		start := time.Now()
		next.ServeHTTP(tw, r)
		d := time.Since(start)
		s.observeRequest(kindOf(r.URL.Path), d)
		if cfg.AccessLog == nil {
			return
		}
		attrs := []any{
			"requestId", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", tw.status,
			"durationMs", float64(d.Microseconds()) / 1e3,
		}
		// The trace's nonzero request-scoped counters (cache hit/miss,
		// model iteration counts) ride the same line, in obs.Counter order.
		for c := range obs.NumCounters {
			if v := tw.trace.Counter(c); v != 0 {
				attrs = append(attrs, c.String(), v)
			}
		}
		if d >= cfg.SlowRequestThreshold {
			snap := tw.trace.Snapshot()
			stages := make(map[string]float64, len(snap.Stages))
			for name, st := range snap.Stages {
				stages[name] = st.Seconds
			}
			attrs = append(attrs, "slow", true, "stageSeconds", stages)
			cfg.AccessLog.Warn("slow request", attrs...)
			return
		}
		cfg.AccessLog.Info("request", attrs...)
	})
}

// recoverMiddleware isolates handler panics: one poisoned request logs the
// stack and answers a structured 500 instead of tearing down the connection
// (and, under http.Server, noisily killing its goroutine). http.ErrAbortHandler
// re-panics — it is the sanctioned way to abort a response mid-stream.
func recoverMiddleware(cfg ServerConfig, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if cfg.AccessLog != nil {
				cfg.AccessLog.Error("handler panic",
					"requestId", traceOf(w).RequestID(),
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
			}
			writeError(w, r, http.StatusInternalServerError, errors.New("internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// clientBudget reads the request's deadline budget from the X-Deadline-Ms
// header, clamped to maxClientDeadline. Zero means "no client budget" (the
// server default applies); a malformed, non-positive or NaN value is a
// client error.
func clientBudget(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.ParseFloat(h, 64)
	if err != nil || !(ms > 0) {
		return 0, invalid(fmt.Errorf("%s: want a positive millisecond count, got %q", DeadlineHeader, h))
	}
	if ms >= float64(maxClientDeadline/time.Millisecond) {
		return maxClientDeadline, nil
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

// effectiveTimeout resolves one request's handling budget: a client budget
// wins, then a configured uniform Timeout, then the request class's
// default.
func effectiveTimeout(cfg ServerConfig, class admit.Class, budget time.Duration) time.Duration {
	switch {
	case budget > 0:
		return budget
	case cfg.Timeout > 0:
		return cfg.Timeout
	case class == admit.ClassCheap:
		return defaultCheapTimeout
	}
	return defaultExpensiveTimeout
}

// jsonEndpoint wires one POST endpoint as one ordered boundary: read the
// budget from the headers, pass admission, read and decode at most
// maxBody bytes of body within the request's own deadline, handle,
// encode. A shed therefore reads no body byte, whatever its size, and an
// admitted body that stalls holds its admission cost no longer than its
// budget. Malformed input maps to 400, shed admissions to 503 with
// Retry-After, an expired budget (in the body read or the handler) to
// 504. The request's trace rides the handler context, so the engine's
// stages and counters (admission → pool → cache → profiles → planner →
// core) land on it.
func jsonEndpoint[Req any](s *Service, cfg ServerConfig, class admit.Class, maxBody int64, handle func(context.Context, Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tr := traceOf(w); tr != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		budget, err := clientBudget(r)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := context.WithTimeout(ctx, effectiveTimeout(cfg, class, budget))
		defer cancel()
		admitStart := time.Now()
		ticket, err := s.admission.Admit(ctx, class)
		s.endSpan(obs.FromContext(ctx), obs.StageAdmission, admitStart)
		if err != nil {
			writeError(w, r, http.StatusServiceUnavailable, err)
			return
		}
		defer ticket.Done()
		deadline, _ := ctx.Deadline()
		setReadDeadline(w, deadline)
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, r, errorStatus(err, http.StatusBadRequest), fmt.Errorf("decode request: %w", err))
			return
		}
		out, err := handle(ctx, req)
		if err != nil {
			// Client faults (malformed wire input, rejected validation) map
			// to 400; anything the engine failed at after accepting the
			// request is a genuine 500 so monitoring sees it.
			status := http.StatusInternalServerError
			if IsInvalidRequest(err) {
				status = http.StatusBadRequest
			}
			writeError(w, r, errorStatus(err, status), err)
			return
		}
		writeJSON(w, r, http.StatusOK, out)
	}
}

// setReadDeadline bounds the body read of w's connection, finding the
// connection's SetReadDeadline through Unwrap as http.ResponseController
// does. A writer with none (an in-process one, such as an httptest
// recorder) has no connection to bound, so the call does nothing, without
// the wrapped http.ErrNotSupported the controller would allocate per
// request. The deadline's error is ignored: a connection that refuses one
// is closed, so the body read fails on its own.
func setReadDeadline(w http.ResponseWriter, deadline time.Time) {
	for {
		switch rw := w.(type) {
		case interface{ SetReadDeadline(time.Time) error }:
			_ = rw.SetReadDeadline(deadline)
			return
		case interface{ Unwrap() http.ResponseWriter }:
			w = rw.Unwrap()
		default:
			return
		}
	}
}

// errorStatus maps an expired budget (the context's, or the body read's
// connection deadline) to 504 and a gone client to 499; any other error
// keeps status.
func errorStatus(err error, status int) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	}
	return status
}

// wantsTimings reports whether the request opted into the per-stage timings
// block via ?debug=timings. The RawQuery gate keeps the common no-query
// path free of URL parsing.
func wantsTimings(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	return r.URL.Query().Get("debug") == "timings"
}

// jsonBufPool recycles the scratch buffers of writeJSON across requests.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON renders one response body, splicing the request ID (and, under
// ?debug=timings, the stage-timing block) into object payloads whenever the
// request carries a trace. The body is rendered whole into a pooled buffer
// before any header is written, so a payload that cannot be encoded (a
// non-finite float) is answered with the structured error envelope and
// status 500 instead of a half-sent body. The payload is marshalled once,
// compact, then indented in a single pass behind a hand-written envelope
// prefix — tracing must not tax the cache-hit fast path. (Compact Encode +
// json.Indent into a pooled buffer beats Encoder.SetIndent, which
// allocates a fresh internal indent buffer per encoder.)
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	scratch := jsonBufPool.Get().(*bytes.Buffer)
	out := jsonBufPool.Get().(*bytes.Buffer)
	defer func() {
		scratch.Reset()
		out.Reset()
		jsonBufPool.Put(scratch)
		jsonBufPool.Put(out)
	}()
	tr := traceOf(w)
	if err := renderJSON(out, scratch, tr, r, v); err != nil {
		scratch.Reset()
		out.Reset()
		status = http.StatusInternalServerError
		// An errorWire and a trace snapshot hold only finite numbers, so
		// the envelope always encodes.
		_ = renderJSON(out, scratch, tr, r, errorWire{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(out.Bytes())
}

// renderJSON writes v's indented body to out (scratch holds the compact
// encoding), with the envelope of tr spliced into an object payload when
// tr is non-nil.
func renderJSON(out, scratch *bytes.Buffer, tr *obs.Trace, r *http.Request, v any) error {
	if err := json.NewEncoder(scratch).Encode(v); err != nil {
		return err
	}
	payload := scratch.Bytes()
	payload = payload[:len(payload)-1] // Encode appends '\n'
	if tr == nil || len(payload) < 2 || payload[0] != '{' {
		// Untraced and non-object payloads pass through without an
		// envelope.
		if err := json.Indent(out, payload, "", "  "); err != nil {
			return err
		}
		out.WriteByte('\n')
		return nil
	}
	// The id is written unescaped: request IDs are generated hex or
	// validated [0-9A-Za-z._-] (obs.ValidRequestID), so no JSON escaping
	// can apply.
	out.Grow(len(payload) + 64)
	out.WriteString("{\n  \"requestId\": \"")
	out.WriteString(tr.ID)
	out.WriteByte('"')
	if wantsTimings(r) {
		t, err := json.MarshalIndent(tr.Snapshot(), "  ", "  ")
		if err != nil {
			return err
		}
		out.WriteString(",\n  \"timings\": ")
		out.Write(t)
	}
	if len(payload) == 2 { // empty payload object: nothing to splice
		out.WriteString("\n}")
	} else {
		out.WriteByte(',')
		pos := out.Len()
		if err := json.Indent(out, payload, "", "  "); err != nil {
			return err
		}
		// The payload's opening '{' — our prefix already opened the
		// object, so it degrades to insignificant whitespace.
		out.Bytes()[pos] = ' '
	}
	out.WriteByte('\n')
	return nil
}

// errorWire is the structured error envelope: every error response carries
// "error" (and "requestId" via writeJSON's splice); retryable rejections
// (503, 504) also carry the machine-readable shed reason and the
// Retry-After hint mirrored into the body, so clients behind proxies that
// strip headers still see it.
type errorWire struct {
	Error string `json:"error"`
	// Reason is the admission shed reason ("queue_full", "deadline",
	// "draining") when the rejection came from the admission controller.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSec mirrors the Retry-After response header.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
}

// writeError renders one structured error body, attaching Retry-After to
// every retryable status (503/504; a default of 1s when no layer
// supplied a better estimate) and the shed reason for admission rejections.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	body := errorWire{Error: err.Error()}
	if se, ok := admit.IsShed(err); ok {
		body.Reason = se.Reason
		secs := int(math.Ceil(se.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	switch status {
	case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
		if secs, convErr := strconv.Atoi(w.Header().Get("Retry-After")); convErr == nil {
			body.RetryAfterSec = secs
		}
	}
	writeJSON(w, r, status, body)
}

// clusterWire selects a cluster: the calibrated default scaled to "nodes", a
// heterogeneous class table riding the default container sizing, or a fully
// custom spec (whose JSON form also accepts "classes" — see cluster.Spec).
type clusterWire struct {
	Nodes  int           `json:"nodes,omitempty"`
	Custom *cluster.Spec `json:"custom,omitempty"`
	// Classes builds a heterogeneous cluster from the calibrated default's
	// container configuration plus the given hardware classes.
	Classes []cluster.NodeClass `json:"classes,omitempty"`
}

func (c clusterWire) spec() (cluster.Spec, error) {
	if c.Custom != nil {
		return *c.Custom, nil
	}
	if len(c.Classes) > 0 {
		if c.Nodes > 0 {
			return cluster.Spec{}, invalid(errors.New("cluster.nodes and cluster.classes are mutually exclusive"))
		}
		spec := cluster.Default(0)
		spec.Classes = c.Classes
		return spec, nil
	}
	if c.Nodes <= 0 {
		return cluster.Spec{}, invalid(errors.New("cluster.nodes must be positive (or supply cluster.classes or cluster.custom)"))
	}
	return cluster.Default(c.Nodes), nil
}

// jobWire describes one job: a named built-in profile ("wordcount", "grep",
// "terasort") or a full custom profile.
type jobWire struct {
	InputMB       float64           `json:"inputMB"`
	BlockSizeMB   float64           `json:"blockSizeMB,omitempty"` // default 128
	Reduces       int               `json:"reduces,omitempty"`     // default 1
	Profile       string            `json:"profile,omitempty"`     // default "wordcount"
	CustomProfile *workload.Profile `json:"customProfile,omitempty"`
}

func (j jobWire) job() (workload.Job, error) {
	prof := workload.WordCount()
	switch {
	case j.CustomProfile != nil:
		prof = *j.CustomProfile
	case j.Profile == "" || j.Profile == "wordcount":
	case j.Profile == "grep":
		prof = workload.Grep()
	case j.Profile == "terasort":
		prof = workload.TeraSort()
	default:
		return workload.Job{}, invalid(fmt.Errorf("unknown profile %q (want wordcount, grep or terasort)", j.Profile))
	}
	block := j.BlockSizeMB
	if block <= 0 {
		block = 128
	}
	reduces := j.Reduces
	if reduces <= 0 {
		reduces = 1
	}
	job, err := workload.NewJob(0, j.InputMB, block, reduces, prof)
	if err != nil {
		return workload.Job{}, invalid(err)
	}
	return job, nil
}

type predictWire struct {
	Cluster   clusterWire    `json:"cluster"`
	Job       jobWire        `json:"job"`
	NumJobs   int            `json:"numJobs,omitempty"`
	Estimator core.Estimator `json:"estimator,omitempty"`
	// Faults describes a fault-injection scenario (node MTTF/repair,
	// stragglers, speculation); the model corrects its effective demands for
	// the expected rework. Omitted: fault-free prediction.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Profile references a calibrated profile by name (POST /v1/calibrate);
	// its fitted statistics seed the model instead of the static
	// initialization. Distinct from job.profile, which names a workload.
	Profile string `json:"profile,omitempty"`
	// Workflow predicts a DAG of dependent jobs instead of a single one:
	// the stages' jobs replace the top-level job (then ignored and
	// omittable), cluster becomes the default for stages without their own,
	// and profile the default calibrated profile per the per-stage
	// resolution rule (see docs/API.md).
	Workflow *workflowWire `json:"workflow,omitempty"`
}

func (p predictWire) toRequest() (PredictRequest, error) {
	spec, err := p.Cluster.spec()
	if err != nil {
		return PredictRequest{}, err
	}
	req := PredictRequest{Spec: spec, NumJobs: p.NumJobs, Estimator: p.Estimator,
		Faults: p.Faults, Profile: p.Profile}
	if p.Workflow != nil {
		wf, err := p.Workflow.toWorkflow()
		if err != nil {
			return PredictRequest{}, err
		}
		req.Workflow = wf
		return req, nil
	}
	job, err := p.Job.job()
	if err != nil {
		return PredictRequest{}, err
	}
	req.Job = job
	return req, nil
}

// workflowStageWire is one stage of a request's workflow block.
type workflowStageWire struct {
	// Name identifies the stage in edges and the response.
	Name string `json:"name"`
	// Job is the stage's MapReduce job (same shape as the top-level job).
	Job jobWire `json:"job"`
	// Cluster optionally gives the stage its own cluster; omitted stages
	// inherit the request's cluster.
	Cluster *clusterWire `json:"cluster,omitempty"`
	// Profile optionally overrides the request-level calibrated profile for
	// this stage.
	Profile string `json:"profile,omitempty"`
}

// workflowWire is the request-level workflow block: named job stages plus
// precedence edges between stage names.
type workflowWire struct {
	Stages []workflowStageWire `json:"stages"`
	Edges  []workflow.Edge     `json:"edges,omitempty"`
}

func (w *workflowWire) toWorkflow() (*Workflow, error) {
	wf := &Workflow{Edges: w.Edges}
	for _, st := range w.Stages {
		job, err := st.Job.job()
		if err != nil {
			return nil, invalid(fmt.Errorf("workflow stage %q: %w", st.Name, err))
		}
		stage := WorkflowStage{Name: st.Name, Job: job, Profile: st.Profile}
		if st.Cluster != nil {
			spec, err := st.Cluster.spec()
			if err != nil {
				return nil, invalid(fmt.Errorf("workflow stage %q: %w", st.Name, err))
			}
			stage.Spec = &spec
		}
		wf.Stages = append(wf.Stages, stage)
	}
	return wf, nil
}

type predictResultWire struct {
	ResponseTime float64 `json:"responseTime"`
	Iterations   int     `json:"iterations"`
	// InnerIterations is the total MVA fixed-point sweeps across the outer
	// rounds — with iterations, the convergence cost of this prediction.
	InnerIterations int            `json:"innerIterations"`
	Converged       bool           `json:"converged"`
	Estimator       core.Estimator `json:"estimator"`
	Cached          bool           `json:"cached"`
	// Profile/ProfileVersion echo the calibrated profile snapshot that
	// seeded this prediction (absent for profile-less requests).
	Profile        string `json:"profile,omitempty"`
	ProfileVersion int64  `json:"profileVersion,omitempty"`
	// Workflow carries the per-stage schedule, slack and critical path of a
	// workflow-bearing request (absent for single-job requests, whose body
	// stays byte-identical to the pre-workflow wire format).
	Workflow *WorkflowReport `json:"workflow,omitempty"`
}

type simulateWire struct {
	Cluster clusterWire `json:"cluster"`
	Job     jobWire     `json:"job"`
	// NumJobs submits that many identical copies of Job at t = 0.
	NumJobs int         `json:"numJobs,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Reps    int         `json:"reps,omitempty"`
	Policy  yarn.Policy `json:"policy,omitempty"`
	// Faults injects node failures, straggler tails and speculative
	// re-execution into every seeded repetition. Omitted: fault-free runs
	// (bit-identical to pre-fault-injection simulations).
	Faults *fault.Plan `json:"faults,omitempty"`
	// Profile is accepted for wire symmetry but rejected: calibrated
	// profiles seed the analytic model's initialization, and a simulation
	// has none — failing loudly beats silently ignoring the reference.
	Profile string `json:"profile,omitempty"`
}

func (sw simulateWire) toRequest() (SimulateRequest, error) {
	if sw.Profile != "" {
		return SimulateRequest{}, invalid(errors.New("calibrated profiles seed the analytic model; /v1/simulate executes the job's workload profile directly"))
	}
	spec, err := sw.Cluster.spec()
	if err != nil {
		return SimulateRequest{}, err
	}
	job, err := sw.Job.job()
	if err != nil {
		return SimulateRequest{}, err
	}
	n := sw.NumJobs
	if n <= 0 {
		n = 1
	}
	// Bound before allocating: numJobs comes off the wire.
	if n > MaxSimJobs {
		return SimulateRequest{}, invalid(fmt.Errorf("numJobs %d exceeds limit %d", n, MaxSimJobs))
	}
	return SimulateRequest{Spec: spec, Jobs: job.Copies(n), Seed: sw.Seed, Reps: sw.Reps,
		Policy: sw.Policy, Faults: sw.Faults}, nil
}

type simJobWire struct {
	ID       int     `json:"id"`
	Response float64 `json:"response"`
}

type simulateResultWire struct {
	MeanResponse float64      `json:"meanResponse"`
	Makespan     float64      `json:"makespan"`
	Events       int          `json:"events"`
	Jobs         []simJobWire `json:"jobs"`
	// Quantiles reports the batch's mean response at p50/p95/p99 of the
	// seeded repetitions; FailedSeeds how many repetitions errored.
	Quantiles   SimQuantiles `json:"quantiles"`
	FailedSeeds int          `json:"failedSeeds,omitempty"`
	// Faults carries the median run's injected-fault bookkeeping (absent
	// for fault-free runs).
	Faults *mrsim.FaultStats `json:"faults,omitempty"`
	Cached bool              `json:"cached"`
	// Degraded marks a model-only synthesis served while the simulator
	// circuit breaker was open; absent in healthy operation, keeping
	// fault-free responses byte-identical.
	Degraded bool `json:"degraded,omitempty"`
}

type compareWire struct {
	Cluster clusterWire `json:"cluster"`
	Job     jobWire     `json:"job"`
	NumJobs int         `json:"numJobs,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Reps    int         `json:"reps,omitempty"`
	// Faults injects the scenario into the simulated side and applies the
	// matching analytic correction on the model side.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Profile seeds the model side of the comparison from a calibrated
	// profile (see predictWire.Profile); the simulated side is unaffected.
	Profile string `json:"profile,omitempty"`
}

func (c compareWire) toRequest() (CompareRequest, error) {
	spec, err := c.Cluster.spec()
	if err != nil {
		return CompareRequest{}, err
	}
	job, err := c.Job.job()
	if err != nil {
		return CompareRequest{}, err
	}
	return CompareRequest{Spec: spec, Job: job, NumJobs: c.NumJobs, Seed: c.Seed, Reps: c.Reps,
		Faults: c.Faults, Profile: c.Profile}, nil
}

type planWire struct {
	Cluster      clusterWire    `json:"cluster"`
	Job          jobWire        `json:"job"`
	NumJobs      int            `json:"numJobs,omitempty"`
	Estimator    core.Estimator `json:"estimator,omitempty"`
	Nodes        []int          `json:"nodes,omitempty"`
	ClassCounts  [][]int        `json:"classCounts,omitempty"`
	BlockSizesMB []float64      `json:"blockSizesMB,omitempty"`
	Reducers     []int          `json:"reducers,omitempty"`
	Policies     []yarn.Policy  `json:"policies,omitempty"`
	DeadlineSec  float64        `json:"deadlineSec,omitempty"`
	Exhaustive   bool           `json:"exhaustive,omitempty"`
	UseSimulator bool           `json:"useSimulator,omitempty"`
	Seed         int64          `json:"seed,omitempty"`
	Reps         int            `json:"reps,omitempty"`
	// Faults applies a fault-injection scenario to every candidate (injected
	// in simulator-backed plans, corrected for analytically otherwise).
	Faults *fault.Plan `json:"faults,omitempty"`
	// Quantile plans simulator-backed candidates against the given seeded-run
	// quantile (0.5, 0.95 or 0.99; default 0.5). Requires useSimulator.
	Quantile float64 `json:"quantile,omitempty"`
	// Profile seeds every model-backed candidate from a calibrated profile;
	// rejected when useSimulator is set.
	Profile string `json:"profile,omitempty"`
	// Workflow plans a whole DAG: each candidate's response time is the
	// composed critical-path makespan on that candidate's cluster. Only the
	// cluster axes (nodes or classCounts) apply; the top-level job is
	// ignored and omittable.
	Workflow *workflowWire `json:"workflow,omitempty"`
}

func (p planWire) toRequest() (PlanRequest, error) {
	spec, err := p.Cluster.spec()
	if err != nil {
		return PlanRequest{}, err
	}
	req := PlanRequest{
		Spec: spec, NumJobs: p.NumJobs, Estimator: p.Estimator,
		Nodes: p.Nodes, ClassCounts: p.ClassCounts, BlockSizesMB: p.BlockSizesMB,
		Reducers: p.Reducers, Policies: p.Policies, DeadlineSec: p.DeadlineSec,
		Exhaustive: p.Exhaustive, UseSimulator: p.UseSimulator, Seed: p.Seed, Reps: p.Reps,
		Faults: p.Faults, Quantile: p.Quantile, Profile: p.Profile,
	}
	if p.Workflow != nil {
		wf, err := p.Workflow.toWorkflow()
		if err != nil {
			return PlanRequest{}, err
		}
		req.Workflow = wf
		return req, nil
	}
	job, err := p.Job.job()
	if err != nil {
		return PlanRequest{}, err
	}
	req.Job = job
	return req, nil
}

// calibrateWire is the POST /v1/calibrate body: a trace document plus fit
// controls. The trace is decoded and validated by trace.Read, so a calibrate
// body gets exactly the sanity checks a trace file does.
type calibrateWire struct {
	// Name registers (or replaces) the profile under this reference key.
	Name string `json:"name"`
	// Trace is a trace.Document: {"version": 1, "result": {...}}.
	Trace json.RawMessage `json:"trace"`
	// TTLSec overrides the service's default profile lifetime (seconds).
	TTLSec float64 `json:"ttlSec,omitempty"`
	// TrimFraction, MinSamples and CVFloor map onto trace.FitOptions.
	TrimFraction float64 `json:"trimFraction,omitempty"`
	MinSamples   int     `json:"minSamples,omitempty"`
	CVFloor      float64 `json:"cvFloor,omitempty"`
}

func (c calibrateWire) toRequest() (CalibrateRequest, error) {
	if len(c.Trace) == 0 {
		return CalibrateRequest{}, invalid(errors.New("calibrate needs a trace document"))
	}
	res, err := trace.Read(bytes.NewReader(c.Trace))
	if err != nil {
		return CalibrateRequest{}, invalid(err)
	}
	if c.TTLSec < 0 {
		return CalibrateRequest{}, invalid(errors.New("ttlSec must be nonnegative"))
	}
	return CalibrateRequest{
		Name:   c.Name,
		Result: res,
		Fit:    trace.FitOptions{TrimFraction: c.TrimFraction, MinSamples: c.MinSamples, CVFloor: c.CVFloor},
		TTL:    time.Duration(c.TTLSec * float64(time.Second)),
	}, nil
}

// classStatsWire is one class's fitted statistics on the wire.
type classStatsWire struct {
	MeanResponse float64 `json:"meanResponse"`
	CV           float64 `json:"cv"`
	MeanCPU      float64 `json:"meanCPU"`
	MeanDisk     float64 `json:"meanDisk"`
	MeanNetwork  float64 `json:"meanNetwork"`
	Samples      int     `json:"samples"`
	Trimmed      int     `json:"trimmed,omitempty"`
}

// classWire renders fitted classes under their stable string names
// ("map", "shuffle-sort", "merge").
func classWire(classes map[timeline.Class]trace.FittedClass) map[string]classStatsWire {
	out := make(map[string]classStatsWire, len(classes))
	for cls, fc := range classes {
		out[cls.String()] = classStatsWire{
			MeanResponse: fc.Stats.MeanResponse,
			CV:           fc.Stats.CV,
			MeanCPU:      fc.Stats.MeanCPU,
			MeanDisk:     fc.Stats.MeanDisk,
			MeanNetwork:  fc.Stats.MeanNetwork,
			Samples:      fc.Samples,
			Trimmed:      fc.Trimmed,
		}
	}
	return out
}

// calibrateResultWire is the POST /v1/calibrate response body.
type calibrateResultWire struct {
	Profile ProfileInfo               `json:"profile"`
	Classes map[string]classStatsWire `json:"classes"`
}

// profilesWire is the GET /v1/profiles response body.
type profilesWire struct {
	Profiles []ProfileInfo `json:"profiles"`
}
