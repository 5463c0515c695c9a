package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hadoop2perf/internal/core"
	"hadoop2perf/internal/ptree"
	"hadoop2perf/internal/service"
)

// Workload sizes. A pass list is sized from the pass length at the rate each
// workload runs at on two cores (about 700 predict-miss requests/s, 50k
// predict-hit requests/s and 480 plan-deadline queries/s), and holds at
// least minTailSamples operations, so p99 always has ten samples beyond it.
const (
	missPerSec      = 700
	planPerSec      = 480
	hitPerSec       = 50000
	missWarmups     = 32   // distinct requests outside the list sent to each fresh service
	hotKeys         = 256  // predict-hit hot set: 16 shards × 64 entries hold it with room to spare
	missSampleEvery = 64   // about 1 in 64 predict-miss responses is re-solved
	missMaxChecks   = 256  // at most this many re-solves per run
	planSampleEvery = 128  // about 1 in 128 plan responses is re-run exhaustively
	planMaxChecks   = 12   // at most this many exhaustive re-runs per run
	replayPredicts  = 128  // requests replayed through direct layer calls
	replayPlans     = 16   // plan queries replayed through direct layer calls
	replayRounds    = 5    // alternating HTTP/direct batches in the http.self replay
	spannedOps      = 4096 // traced operations whose spans are kept and written out
	cachedTrueField = `"cached": true`
	evaluatedField  = `"evaluated": `
	requestIDField  = `"requestId": "`
)

type servingKind int

const (
	kindMiss servingKind = iota
	kindHit
	kindPlan
)

// servingBench drives the mrserved handler in-process for the three serving
// workloads: predict-miss, predict-hit and plan-deadline.
type servingBench struct {
	kind servingKind
	seed uint64
	n    int // operations per pass

	svc     *service.Service
	cl, tcl *client // untraced and ?debug=timings clients
	passes  int     // passes run on the current set-up

	shapes  []predictShape // predict workloads: the pass list (miss) or hot set (hit)
	queries []planQuery    // plan-deadline: the pass list
	bodies  [][]byte
	warm    [][]byte // warm-up requests outside the pass list
	order   []uint16 // predict-hit: seeded hot-set order

	sample    []bool
	kept      map[int][]byte // sampled responses of the first pass, by list position
	sheds     int
	fallbacks int             // plan-deadline queries answered exhaustively
	before    service.Metrics // counters after set-up
	traceAgg  stageAgg        // traced operations (spans are kept for the first spannedOps)
	spans     []span
	reqSerial int
}

// newServingBench sizes the pass list for passes of about passSeconds.
func newServingBench(kind servingKind, seed uint64, passSeconds float64) *servingBench {
	per := map[servingKind]float64{kindMiss: missPerSec, kindHit: hitPerSec, kindPlan: planPerSec}[kind]
	return &servingBench{kind: kind, seed: seed, n: max(minTailSamples, int(per*passSeconds))}
}

func (b *servingBench) ops() int { return b.n }

func (b *servingBench) path() string {
	if b.kind == kindPlan {
		return "/v1/plan"
	}
	return "/v1/predict"
}

// setup generates the pass list from the seed and builds the first service:
// predict-miss draws distinct warm-up requests outside the list, predict-hit
// draws its hot set and order, plan-deadline computes each base job's
// axis-end response times with direct model solves and draws two warm-up
// queries outside the list.
func (b *servingBench) setup() error {
	b.passes = 0
	b.kept = make(map[int][]byte)
	b.sheds, b.fallbacks = 0, 0
	b.traceAgg = newStageAgg()
	b.spans = make([]span, 0, 8*spannedOps)
	b.warm = nil

	switch b.kind {
	case kindMiss:
		all := predictShapes(b.seed, saltPredictMiss, missWarmups+b.n)
		for _, s := range all[:missWarmups] {
			b.warm = append(b.warm, s.body())
		}
		b.shapes = all[missWarmups:]
		b.bodies = make([][]byte, b.n)
		for i, s := range b.shapes {
			b.bodies[i] = s.body()
		}
		b.sample = sampleIndices(b.seed, b.n, missSampleEvery)
	case kindHit:
		b.shapes = predictShapes(b.seed, saltPredictHit, hotKeys)
		b.bodies = make([][]byte, hotKeys)
		for i, s := range b.shapes {
			b.bodies[i] = s.body()
		}
		b.order = hitOrder(b.seed, hotKeys)
		b.warm = b.bodies
	case kindPlan:
		bases := drawPlanBases(b.seed, planGroups(b.n+2))
		bounds, err := solvePlanBounds(bases)
		if err != nil {
			return err
		}
		all := planQueries(b.seed, bases, bounds, b.n+2)
		b.queries = all[:b.n]
		b.bodies = make([][]byte, b.n)
		for i, q := range b.queries {
			b.bodies[i] = q.body(false)
		}
		for _, q := range all[b.n:] {
			b.warm = append(b.warm, q.body(false))
		}
		b.sample = sampleIndices(b.seed, b.n, planSampleEvery)
	}
	return b.newService()
}

// newService builds a fresh service and handler with default options and
// sends the warm-up requests (predict-hit: primes the hot set).
func (b *servingBench) newService() error {
	b.svc = service.New(service.Options{})
	h := service.NewHandler(b.svc, service.ServerConfig{})
	b.cl = newClient(h, b.path())
	b.tcl = newClient(h, b.path()+"?debug=timings")
	for _, body := range b.warm {
		if st := b.cl.do(body); !ok2xx(st) {
			return fmt.Errorf("warm-up request failed with status %d: %s", st, b.cl.rec.body.Bytes())
		}
	}
	b.before = b.svc.Metrics()
	return nil
}

func (b *servingBench) body(pos int) []byte {
	if b.kind == kindHit {
		return b.bodies[b.order[pos%len(b.order)]]
	}
	return b.bodies[pos]
}

// pass sends the whole list once from one closed-loop client: each request
// goes out after the previous one returned. predict-miss and plan-deadline
// run every pass after the first on a fresh service, so every request is
// one the service has never seen; predict-hit keeps its primed service.
// Traced passes send ?debug=timings with one request ID per request and
// record the benchmark's own span around each operation, with the service's
// stage spans as its children.
func (b *servingBench) pass(lat []float64, traced bool) (int, error) {
	if b.passes > 0 && b.kind != kindHit {
		if err := b.newService(); err != nil {
			return 0, err
		}
	}
	b.passes++
	cl := b.cl
	if traced {
		cl = b.tcl
	}
	failed := 0
	passStart := time.Now()
	for pos := range lat {
		var id string
		if traced {
			b.reqSerial++
			id = "pb" + strconv.Itoa(b.reqSerial)
			cl.req.Header.Set(service.RequestIDHeader, id)
		}
		t0 := time.Now()
		st := cl.do(b.body(pos))
		d := time.Since(t0)
		if traced {
			b.record(id, t0.Sub(passStart), d, cl.rec.body.Bytes())
		}
		if b.accept(pos, st, cl.rec.body.Bytes(), traced) {
			lat[pos] = d.Seconds()
		} else {
			lat[pos] = math.Inf(1)
			failed++
		}
	}
	if b.fallbacks > 0 {
		logf("plan-deadline: %d queries fell back to the exhaustive axis", b.fallbacks)
	}
	return failed, nil
}

// accept runs the inline checks on one response and keeps the sampled ones:
// a sampled response of a later plain pass must repeat the first pass's
// (sameAnswer).
func (b *servingBench) accept(pos, status int, body []byte, traced bool) bool {
	if status == http.StatusServiceUnavailable {
		b.sheds++
	}
	if !ok2xx(status) {
		return false
	}
	switch b.kind {
	case kindHit:
		return cachedResponse(body)
	case kindPlan:
		if planFellBack(body) {
			b.fallbacks++
			return false
		}
	}
	if b.sample == nil || !b.sample[pos] || traced {
		return true
	}
	first, ok := b.kept[pos]
	if !ok {
		b.kept[pos] = bytes.Clone(body)
		return true
	}
	if !sameAnswer(first, body) {
		logf("request %d answered differently on pass %d", pos, b.passes)
		return false
	}
	return true
}

// sameAnswer reports whether two responses are byte-identical apart from the
// request ID the service generates for each request.
func sameAnswer(a, b []byte) bool {
	ai, aj := requestIDSpan(a)
	bi, bj := requestIDSpan(b)
	return bytes.Equal(a[:ai], b[:bi]) && bytes.Equal(a[aj:], b[bj:])
}

// requestIDSpan locates the value of a response's requestId field: body[i:j]
// (empty at the end of body when there is none).
func requestIDSpan(body []byte) (i, j int) {
	k := bytes.Index(body, []byte(requestIDField))
	if k < 0 {
		return len(body), len(body)
	}
	i = k + len(requestIDField)
	end := bytes.IndexByte(body[i:], '"')
	if end < 0 {
		return i, len(body)
	}
	return i, i + end
}

// cachedResponse reports whether a /v1/predict response was served from the
// cache; the service writes its JSON indented, one field per line.
func cachedResponse(body []byte) bool { return bytes.Contains(body, []byte(cachedTrueField)) }

// planFellBack reports whether a deadline /v1/plan response evaluated every
// point of the node axis: the search found the response curve non-monotone
// and fell back to the exhaustive axis, 20–50× the cost of a bisection. The
// workload's strata keep every query on the bisection path (see planStrata),
// so a query that falls back fails.
func planFellBack(body []byte) bool {
	i := bytes.Index(body, []byte(evaluatedField))
	if i < 0 {
		return false
	}
	n := 0
	for _, c := range body[i+len(evaluatedField):] {
		if c < '0' || c > '9' {
			break
		}
		n = 10*n + int(c-'0')
	}
	return n >= planMaxNodes-planMinNodes+1
}

// timingsWire is the part of a ?debug=timings response the trace reads.
type timingsWire struct {
	Timings struct {
		Stages map[string]struct {
			Seconds float64 `json:"seconds"`
			Spans   int64   `json:"spans"`
		} `json:"stages"`
		Counts map[string]int64 `json:"counts"`
	} `json:"timings"`
	Evaluated int `json:"evaluated"`
}

// record adds one traced operation: its own span and its stage spans as
// children (for the first spannedOps operations), and its stage times and
// counters to the traced phase's totals.
func (b *servingBench) record(id string, start, d time.Duration, body []byte) {
	var tw timingsWire
	_ = json.Unmarshal(body, &tw) // error bodies carry no timings; the op span still counts
	name := "predict"
	if b.kind == kindPlan {
		name = "plan"
	}
	keep := b.traceAgg.ops < spannedOps
	if keep {
		b.spans = append(b.spans, span{ID: id, Name: name, StartUS: us(start), DurUS: us(d)})
	}
	b.traceAgg.ops++
	b.traceAgg.latency += d.Seconds()
	for stage, st := range tw.Timings.Stages {
		if keep {
			b.spans = append(b.spans, span{ID: id, Parent: name, Name: stage, DurUS: st.Seconds * 1e6, Count: st.Spans})
		}
		b.traceAgg.addStage(stage, st.Seconds, st.Spans)
	}
	for k, v := range tw.Timings.Counts {
		b.traceAgg.counts[k] += v
	}
	b.traceAgg.evaluated += tw.Evaluated
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// check verifies the timed outputs after timing and returns the number of
// failed operations it found. (predict-hit responses without "cached": true
// already failed inline.)
func (b *servingBench) check() (int, error) {
	switch b.kind {
	case kindMiss:
		return b.checkMiss()
	case kindHit:
		return int(b.svc.Metrics().CacheMisses - b.before.CacheMisses), nil
	default:
		return b.checkPlan()
	}
}

// predictResultWire is the part of a /v1/predict response the checks read.
type predictResultWire struct {
	ResponseTime    float64 `json:"responseTime"`
	Iterations      int     `json:"iterations"`
	InnerIterations int     `json:"innerIterations"`
	Cached          bool    `json:"cached"`
}

// checkPredictResponse reports whether body is the cold prediction want.
func checkPredictResponse(body []byte, want core.Prediction) error {
	var got predictResultWire
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode predict response: %w", err)
	}
	if got.Cached {
		return fmt.Errorf("predict-miss response served from cache")
	}
	if got.ResponseTime != want.ResponseTime || got.Iterations != want.Iterations ||
		got.InnerIterations != want.InnerIterations {
		return fmt.Errorf("response %v (%d/%d iterations), direct solve %v (%d/%d)",
			got.ResponseTime, got.Iterations, got.InnerIterations,
			want.ResponseTime, want.Iterations, want.InnerIterations)
	}
	return nil
}

// checkMiss re-solves a seeded sample of predict-miss requests with
// core.Predictor.Predict; the served answer must match bit for bit.
func (b *servingBench) checkMiss() (int, error) {
	p := core.NewPredictor()
	failed := 0
	for _, pos := range sortedKeys(b.kept, missMaxChecks) {
		cfg, err := b.shapes[pos].config()
		if err != nil {
			return 0, err
		}
		want, err := p.Predict(cfg)
		if err != nil {
			return 0, fmt.Errorf("re-solve request %d: %w", pos, err)
		}
		if err := checkPredictResponse(b.kept[pos], want); err != nil {
			logf("predict-miss request %d: %v", pos, err)
			failed++
		}
	}
	return failed, nil
}

// planResultWire is the part of a /v1/plan response the checks read.
type planResultWire struct {
	Best *struct {
		Nodes        int     `json:"nodes"`
		ResponseTime float64 `json:"responseTime"`
	} `json:"best"`
	Candidates []struct {
		Nodes int `json:"nodes"`
	} `json:"candidates"`
	Strategy string `json:"strategy"`
}

// checkPlanResponse reports whether the search answer got names the same
// best candidate as the exhaustive grid answer want. The node axis is the
// only axis, so the best candidate is its node count.
func checkPlanResponse(got, want []byte) error {
	var g, w planResultWire
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("decode plan response: %w", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("decode exhaustive plan response: %w", err)
	}
	if g.Strategy != service.StrategySearch {
		return fmt.Errorf("deadline plan used strategy %q", g.Strategy)
	}
	switch {
	case g.Best == nil && w.Best == nil:
		return nil
	case g.Best == nil || w.Best == nil:
		return fmt.Errorf("search best %v, grid best %v", g.Best != nil, w.Best != nil)
	case g.Best.Nodes != w.Best.Nodes:
		return fmt.Errorf("search best %d nodes (%.6g s), grid best %d nodes (%.6g s)",
			g.Best.Nodes, g.Best.ResponseTime, w.Best.Nodes, w.Best.ResponseTime)
	}
	return nil
}

// checkPlan re-runs a seeded sample of plan queries with exhaustive:true on
// a fresh service; each must return the same best candidate.
func (b *servingBench) checkPlan() (int, error) {
	failed := 0
	for _, pos := range sortedKeys(b.kept, planMaxChecks) {
		svc := service.New(service.Options{})
		cl := newClient(service.NewHandler(svc, service.ServerConfig{}), b.path())
		if st := cl.do(b.queries[pos].body(true)); !ok2xx(st) {
			return 0, fmt.Errorf("exhaustive plan %d failed with status %d", pos, st)
		}
		if err := checkPlanResponse(b.kept[pos], cl.rec.body.Bytes()); err != nil {
			logf("plan-deadline query %d: %v", pos, err)
			failed++
		}
	}
	return failed, nil
}

// layers reports the per-layer metrics of a traced run: stage times and
// counters from the traced phase, and a replay of sampled inputs through
// direct calls into each layer.
func (b *servingBench) layers(m map[string]float64) error {
	a := &b.traceAgg
	ops := float64(max(a.ops, 1))
	after := b.svc.Metrics()
	hits := after.CacheHits - b.before.CacheHits
	misses := after.CacheMisses - b.before.CacheMisses
	m["admit.decision_us"] = 1e6 * a.stages["admission"].seconds / ops
	m["admit.sheds"] = float64(b.sheds)
	m["pool.queue_wait_us"] = 1e6 * a.stages["queue_wait"].seconds / ops
	if st := a.stages["cache_lookup"]; st.spans > 0 {
		m["cache.lookup_us"] = 1e6 * st.seconds / float64(st.spans)
	}
	if hits+misses > 0 {
		m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["cache.entries"] = float64(after.CacheEntries)
	m["model.share"] = a.stages["model_solve"].seconds / a.latency

	if b.kind == kindPlan {
		search := a.stages["plan_search"].seconds
		predicts := float64(a.counts["predicts"])
		m["plan.search_ms"] = 1e3 * search / ops
		m["plan.predicts_per_op"] = predicts / ops
		m["plan.candidates_per_op"] = float64(a.evaluated) / ops
		if predicts > 0 {
			m["plan.warm_share"] = float64(a.counts["warmStarted"]) / predicts
		}
		if search > 0 {
			m["plan.model_share"] = a.stages["model_solve"].seconds / search
		}
	}

	front, err := b.replayHTTP()
	if err != nil {
		return err
	}
	m["http.self_us"] = front.selfUS
	m["http.allocs_per_op"] = front.allocs
	cfgs, err := b.replayConfigs()
	if err != nil {
		return err
	}
	if err := replayModel(m, cfgs); err != nil {
		return err
	}

	// Attributed time per traced request: the HTTP front's self time (which
	// contains the admission decision), the cost of rendering the timings
	// block (the trace's own cost), and the service stages inside the engine
	// call.
	var stages float64
	if b.kind == kindPlan {
		stages = a.stages["plan_search"].seconds
	} else {
		for _, st := range []string{"queue_wait", "cache_lookup", "profile_resolve", "model_solve"} {
			stages += a.stages[st].seconds
		}
	}
	m["unattributed_share"] = 1 - (1e-6*ops*(front.selfUS+front.timingsUS)+stages)/a.latency
	return nil
}

// replayInputs returns the pool positions replayed through direct calls: the
// seeded sample of sent requests (predict-hit: the first hot keys).
func (b *servingBench) replayInputs() []int {
	switch b.kind {
	case kindHit:
		out := make([]int, replayPredicts)
		for i := range out {
			out[i] = i
		}
		return out
	case kindPlan:
		return sortedKeys(b.kept, replayPlans)
	default:
		return sortedKeys(b.kept, replayPredicts)
	}
}

// httpFront is the replayed cost of the HTTP front per request.
type httpFront struct {
	selfUS    float64 // ServeHTTP minus the direct engine call
	allocs    float64 // allocations of ServeHTTP minus the direct call's
	timingsUS float64 // extra cost of a ?debug=timings request
}

// replayHTTP measures the HTTP front: on a fresh service primed with the
// sampled requests, it alternates batches of plain ServeHTTP calls, traced
// (?debug=timings) ServeHTTP calls and direct Service calls on the same
// requests (all cache hits), and reports median per-request differences.
func (b *servingBench) replayHTTP() (httpFront, error) {
	svc := service.New(service.Options{})
	h := service.NewHandler(svc, service.ServerConfig{})
	cl, tcl := newClient(h, b.path()), newClient(h, b.path()+"?debug=timings")
	inputs := b.replayInputs()
	var bodies [][]byte
	var direct []func() error
	ctx := context.Background()
	for _, pos := range inputs {
		var body []byte
		switch b.kind {
		case kindPlan:
			q := b.queries[pos]
			req, err := q.request()
			if err != nil {
				return httpFront{}, err
			}
			body = q.body(false)
			direct = append(direct, func() error { _, err := svc.Plan(ctx, req); return err })
		default:
			s := b.shapes[pos]
			req, err := s.request()
			if err != nil {
				return httpFront{}, err
			}
			body = s.body()
			direct = append(direct, func() error { _, err := svc.Predict(ctx, req); return err })
		}
		if st := cl.do(body); !ok2xx(st) {
			return httpFront{}, fmt.Errorf("replay request failed with status %d", st)
		}
		bodies = append(bodies, body)
	}
	var selfs, allocDiffs, timings []float64
	var ms runtime.MemStats
	for round := 0; round < replayRounds; round++ {
		t0 := time.Now()
		for _, body := range bodies {
			tcl.do(body)
		}
		tracedTime := time.Since(t0)
		runtime.ReadMemStats(&ms)
		m1, t1 := ms.Mallocs, time.Now()
		for _, body := range bodies {
			cl.do(body)
		}
		httpTime := time.Since(t1)
		runtime.ReadMemStats(&ms)
		m2, t2 := ms.Mallocs, time.Now()
		for _, call := range direct {
			if err := call(); err != nil {
				return httpFront{}, fmt.Errorf("direct replay: %w", err)
			}
		}
		directTime := time.Since(t2)
		runtime.ReadMemStats(&ms)
		n := float64(len(bodies))
		selfs = append(selfs, us(httpTime-directTime)/n)
		timings = append(timings, us(tracedTime-httpTime)/n)
		allocDiffs = append(allocDiffs, (float64(m2-m1)-float64(ms.Mallocs-m2))/n)
	}
	return httpFront{selfUS: median(selfs), allocs: median(allocDiffs), timingsUS: median(timings)}, nil
}

// replayConfigs returns the model configurations behind the sampled
// requests: the predict request itself, or every candidate a sampled plan
// query evaluated.
func (b *servingBench) replayConfigs() ([]core.Config, error) {
	var out []core.Config
	for _, pos := range b.replayInputs() {
		if b.kind != kindPlan {
			cfg, err := b.shapes[pos].config()
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
			continue
		}
		var resp planResultWire
		if err := json.Unmarshal(b.kept[pos], &resp); err != nil {
			return nil, fmt.Errorf("decode plan response: %w", err)
		}
		q := b.queries[pos]
		for _, c := range resp.Candidates {
			cfg, err := planBase{InputMB: q.InputMB, NumJobs: q.NumJobs}.config(c.Nodes, q.InputMB)
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}

// replayModel solves each configuration with core.Predictor.Predict (one
// reused predictor, as the service does) and builds the precedence tree of
// each final timeline with ptree.Build, timing and counting allocations of
// both one call at a time.
func replayModel(m map[string]float64, cfgs []core.Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("no model configurations to replay")
	}
	p := core.NewPredictor()
	var ms runtime.MemStats
	var solve, build time.Duration
	var mallocs, bytesAlloc, treeMallocs uint64
	var outer, inner, leaves, unconverged int
	for _, cfg := range cfgs {
		runtime.ReadMemStats(&ms)
		m0, b0, t0 := ms.Mallocs, ms.TotalAlloc, time.Now()
		pred, err := p.Predict(cfg)
		solve += time.Since(t0)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return fmt.Errorf("replay solve: %w", err)
		}
		mallocs += ms.Mallocs - m0
		bytesAlloc += ms.TotalAlloc - b0
		outer += pred.Iterations
		inner += pred.InnerIterations
		if !pred.Converged {
			unconverged++
		}
		m1, t1 := ms.Mallocs, time.Now()
		tree, err := ptree.Build(pred.Timeline)
		build += time.Since(t1)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return fmt.Errorf("replay ptree.Build: %w", err)
		}
		treeMallocs += ms.Mallocs - m1
		leaves += tree.NumLeaves()
	}
	n := float64(len(cfgs))
	m["model.solve_ms"] = 1e3 * solve.Seconds() / n
	m["model.outer_iters"] = float64(outer) / n
	m["model.inner_sweeps"] = float64(inner) / n
	m["model.allocs_per_solve"] = float64(mallocs) / n
	m["model.bytes_per_solve"] = float64(bytesAlloc) / n
	m["model.unconverged"] = float64(unconverged)
	m["ptree.build_us"] = 1e6 * build.Seconds() / n
	m["ptree.allocs_per_build"] = float64(treeMallocs) / n
	m["ptree.leaves"] = float64(leaves) / n
	return nil
}

func (b *servingBench) traceSpans() []span { return b.spans }
