// Package obs is the request-scoped observability layer of the serving
// path: per-request trace IDs carried through context.Context, lightweight
// stage spans (start/stop timers accumulated per request), fixed-bucket
// latency histograms for the /v1/metrics exposition, and log/slog handler
// construction for structured access logs.
//
// The package is deliberately dependency-free and allocation-lean: a Trace
// is one small struct with a fixed stage array, histogram recording is a
// handful of atomic operations, and every entry point is nil-safe so
// un-instrumented call paths (library users driving the Service directly)
// pay nothing.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of a request's serving path. Stages
// are not a partition — a cache hit spends no model_solve time, a plan's
// plan_search span contains its candidates' model_solve spans — they answer
// "where did this request's latency go", per stage kind.
type Stage int

// The serving-path stages, in pipeline order.
const (
	// StageAdmission is the admission-control decision: cost accounting,
	// queue-depth and deadline-aware shed checks (microseconds by design).
	StageAdmission Stage = iota
	// StageQueueWait is time spent waiting for a worker-pool slot.
	StageQueueWait
	// StageCacheLookup is the canonical-key result-table lookup.
	StageCacheLookup
	// StageProfileResolve is calibrated-profile registry resolution.
	StageProfileResolve
	// StageModelSolve is one analytic model run to convergence.
	StageModelSolve
	// StageSimulate is one median-of-seeds discrete-event simulator run.
	StageSimulate
	// StagePlanSearch is a plan's full strategy evaluation (grid or search).
	StagePlanSearch
	// NumStages is the stage count (array sizing).
	NumStages
)

// stageNames are the stable wire/metric names of the stages.
var stageNames = [NumStages]string{
	"admission", "queue_wait", "cache_lookup", "profile_resolve",
	"model_solve", "simulate", "plan_search",
}

// String returns the stage's stable name (metric label, timings key).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Counter identifies one of the fixed request-scoped counters every request
// may touch. Counters live in a lock-free array on the Trace so the
// serving hot path (a cache hit bumps CounterCacheHits and nothing else)
// never locks or allocates.
type Counter int

// The fixed counters, in the order access-log lines report them.
const (
	// CounterCacheHits counts requests served from a stored result or a
	// shared in-flight one; CounterCacheMisses counts actual computations.
	CounterCacheHits   Counter = iota
	CounterCacheMisses         // see CounterCacheHits
	// CounterPredicts counts computed (non-cached) model runs.
	CounterPredicts
	// CounterOuterIterations accumulates outer damped rounds across the
	// request's model runs; CounterInnerIterations the inner MVA sweeps.
	CounterOuterIterations
	CounterInnerIterations // see CounterOuterIterations
	// CounterCells accumulates the MVA rows of each model run's final
	// round: one per cell of interchangeable tasks (the task count when a
	// run solved element-wise).
	CounterCells
	// CounterReusedRounds accumulates the outer rounds that rebuilt none of
	// their structure (core.Prediction.ReusedRounds), CounterRebuiltRounds
	// the others.
	CounterReusedRounds
	CounterRebuiltRounds // see CounterReusedRounds
	// CounterPlanCandidates is the number of candidates a plan evaluated.
	CounterPlanCandidates
	// NumCounters is the fixed-counter count (array sizing).
	NumCounters
)

// counterNames are the stable wire/log names of the fixed counters.
var counterNames = [NumCounters]string{
	"cacheHits", "cacheMisses", "predicts",
	"outerIterations", "innerIterations", "cells", "reusedRounds", "rebuiltRounds",
	"planCandidates",
}

// String returns the counter's stable name (timings key, log attribute).
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// maxRequestIDLen bounds accepted inbound X-Request-ID values.
const maxRequestIDLen = 64

// hexDigits is the NewRequestID alphabet.
const hexDigits = "0123456789abcdef"

// NewRequestID returns a fresh 16-hex-char request ID. IDs only need to be
// unique enough to correlate a response with its log lines, so they come
// from the fast non-cryptographic generator.
func NewRequestID() string {
	v := rand.Uint64()
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ValidRequestID reports whether an inbound request ID is safe to adopt:
// 1..64 bytes of [0-9A-Za-z._-]. Anything else (whitespace, control bytes,
// quotes — log/header injection vectors) is rejected and replaced by a
// generated ID rather than echoed.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Trace accumulates one request's observability state: its ID, per-stage
// durations and span counts, and the fixed counters (cache hits, model
// iterations — lock-free, allocation-free). A Trace is safe for concurrent
// use — plan fan-out records spans from many goroutines — and every method
// is nil-receiver-safe so un-traced call paths need no checks.
type Trace struct {
	// ID is the request ID echoed in responses, headers and log lines.
	ID string

	counters [NumCounters]atomic.Int64

	mu     sync.Mutex
	stages [NumStages]time.Duration
	spans  [NumStages]int64
}

// NewTrace returns a Trace carrying the given request ID.
func NewTrace(id string) *Trace { return &Trace{ID: id} }

// ctxKey is the private context key type for Trace values.
type ctxKey struct{}

// WithTrace returns a context carrying tr.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the Trace carried by ctx, or nil. The nil result is
// usable: every Trace method tolerates a nil receiver.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// RequestID returns the trace's request ID ("" for a nil trace).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.ID
}

// Add accumulates one completed span of the given stage.
func (t *Trace) Add(stage Stage, d time.Duration) {
	if t == nil || stage < 0 || stage >= NumStages {
		return
	}
	t.mu.Lock()
	t.stages[stage] += d
	t.spans[stage]++
	t.mu.Unlock()
}

// AddCounter accumulates one of the fixed counters — a single atomic add,
// so the cache-hit fast path records its hit without locking or allocating.
func (t *Trace) AddCounter(c Counter, n int64) {
	if t == nil || c < 0 || c >= NumCounters {
		return
	}
	t.counters[c].Add(n)
}

// Counter returns the current value of a fixed counter (0 for a nil trace).
func (t *Trace) Counter(c Counter) int64 {
	if t == nil || c < 0 || c >= NumCounters {
		return 0
	}
	return t.counters[c].Load()
}

// StageSeconds is one stage's accumulated time within a single request.
type StageSeconds struct {
	// Seconds is the total accumulated span time of the stage.
	Seconds float64 `json:"seconds"`
	// Spans is how many spans contributed to it.
	Spans int64 `json:"spans"`
}

// Snapshot is a point-in-time copy of a Trace, shaped for the opt-in
// `?debug=timings` response block.
type Snapshot struct {
	// Stages maps stage names to their accumulated durations; stages the
	// request never entered are omitted.
	Stages map[string]StageSeconds `json:"stages"`
	// Counts carries the trace's nonzero counters by name (omitted when
	// empty).
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Snapshot copies the trace's current state (nil for a nil trace).
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &Snapshot{Stages: make(map[string]StageSeconds, NumStages)}
	for s := Stage(0); s < NumStages; s++ {
		if t.spans[s] == 0 {
			continue
		}
		snap.Stages[stageNames[s]] = StageSeconds{
			Seconds: t.stages[s].Seconds(),
			Spans:   t.spans[s],
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := t.counters[c].Load(); v != 0 {
			if snap.Counts == nil {
				snap.Counts = make(map[string]int64, NumCounters)
			}
			snap.Counts[counterNames[c]] = v
		}
	}
	return snap
}
