package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"hadoop2perf/internal/bench"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/service"
)

// streams renders every workload's generated inputs for one seed as bytes.
func streams(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, salt := range map[string]uint64{"predict-miss": saltPredictMiss, "predict-hit": saltPredictHit} {
		var buf bytes.Buffer
		for _, s := range predictShapes(seed, salt, 2*predictBlock) {
			buf.Write(s.body())
			buf.WriteByte('\n')
		}
		out[name] = buf.Bytes()
	}
	order, err := json.Marshal(hitOrder(seed, hotKeys))
	if err != nil {
		t.Fatal(err)
	}
	out["predict-hit order"] = order

	bases := drawPlanBases(seed, 1)
	bounds, err := solvePlanBounds(bases)
	if err != nil {
		t.Fatal(err)
	}
	var plans bytes.Buffer
	for _, q := range planQueries(seed, bases, bounds, 3*len(bases)) {
		plans.Write(q.body(false))
		plans.WriteByte('\n')
	}
	out["plan-deadline"] = plans.Bytes()

	r := newRand(seed, saltFigures)
	passes, err := json.Marshal([][]int{r.Perm(len(figurePoints())), r.Perm(len(figurePoints()))})
	if err != nil {
		t.Fatal(err)
	}
	out["figures"] = passes
	return out
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := streams(t, 7), streams(t, 7), streams(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: seed 7 produced two different streams", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", name)
		}
	}
}

// TestPredictStreamStratified checks that every block of the predict stream
// has the same composition and that no request repeats.
func TestPredictStreamStratified(t *testing.T) {
	shapes := predictShapes(3, saltPredictMiss, 4*predictBlock)
	seen := map[predictShape]bool{}
	for b := 0; b < 4; b++ {
		fourJobs, twoClass := 0, 0
		inBins := make([]int, 8)
		for _, s := range shapes[b*predictBlock : (b+1)*predictBlock] {
			if seen[s] {
				t.Fatalf("request %+v repeats", s)
			}
			seen[s] = true
			if s.NumJobs == 4 {
				fourJobs++
			}
			if s.Fast > 0 {
				twoClass++
			}
			for i := range inBins {
				if lo, hi := inputBin(i); s.InputMB >= lo && s.InputMB < hi {
					inBins[i]++
				}
			}
		}
		if fourJobs != predictBlock/4 || twoClass != predictBlock/4 {
			t.Errorf("block %d: %d four-job and %d two-class requests, want %d each", b, fourJobs, twoClass, predictBlock/4)
		}
		for i, n := range inBins {
			if n != predictBlock/8 {
				t.Errorf("block %d: input bin %d holds %d requests, want %d", b, i, n, predictBlock/8)
			}
		}
	}
}

// TestPlanQueriesDistinct checks that no two plan queries share a job (and
// so a cache key), even where two bases' variants would overlap.
func TestPlanQueriesDistinct(t *testing.T) {
	bases := drawPlanBases(1, 2)
	strata := len(planStrata())
	// The first stratum's bases in both groups: variant 4 of one is variant
	// 0 of the other.
	bases[0].InputMB, bases[strata].InputMB = 528.25, 529.25
	bounds := make([]planBounds, len(bases))
	for i := range bounds {
		bounds[i] = planBounds{Fast: 50, Slow: 100}
	}
	seen := map[planQuery]bool{}
	for i, q := range planQueries(1, bases, bounds, len(bases)*planVariants) {
		q.Deadline = 0
		if seen[q] {
			t.Fatalf("query %d repeats job %+v", i, q)
		}
		seen[q] = true
	}
}

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	ten := hundred[:10]
	for _, c := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50}, {hundred, 99, 99}, {hundred, 100, 100}, {hundred, 1, 1},
		{ten, 50, 5}, {ten, 90, 9}, {ten, 95, 10}, {ten, 99, 10},
		{[]float64{4}, 50, 4}, {[]float64{4}, 99, 4},
	} {
		if got := nearestRank(c.vals, c.p); got != c.want {
			t.Errorf("nearestRank(%d values, %v) = %v, want %v", len(c.vals), c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples is not NaN")
	}
}

func TestP99WithheldBelowMinSamples(t *testing.T) {
	lat := make([]float64, minTailSamples)
	for i := range lat {
		lat[i] = float64(minTailSamples - i) // descending: summarize must sort
	}
	if s := summarize(slices.Clone(lat[:minTailSamples-1])); s.hasP99 {
		t.Errorf("p99 reported from %d samples", s.n)
	}
	s := summarize(lat)
	if !s.hasP99 || s.p99 != 990 || s.p50 != 500 || s.maximum != minTailSamples {
		t.Errorf("summarize(1..%d) = %+v, want p50 500, p99 990", minTailSamples, s)
	}
}

// TestPredictCheck serves a request through the real handler, checks it
// against a direct solve, then corrupts the response.
func TestPredictCheck(t *testing.T) {
	shape := predictShapes(1, saltPredictMiss, 1)[0]
	cl := newClient(service.NewHandler(service.New(service.Options{}), service.ServerConfig{}), "/v1/predict")
	if st := cl.do(shape.body()); st != 200 {
		t.Fatalf("predict status %d: %s", st, cl.rec.body.Bytes())
	}
	served := bytes.Clone(cl.rec.body.Bytes())
	cfg, err := shape.config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewPredictor().Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPredictResponse(served, want); err != nil {
		t.Fatalf("served response fails the check: %v", err)
	}

	var resp map[string]any
	if err := json.Unmarshal(served, &resp); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(map[string]any){
		"response time": func(m map[string]any) {
			m["responseTime"] = math.Nextafter(want.ResponseTime, math.Inf(1))
		},
		"iterations": func(m map[string]any) { m["iterations"] = want.Iterations + 1 },
		"cached":     func(m map[string]any) { m["cached"] = true },
	} {
		bad := map[string]any{}
		for k, v := range resp {
			bad[k] = v
		}
		corrupt(bad)
		body, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if checkPredictResponse(body, want) == nil {
			t.Errorf("corrupted %s passes the check", name)
		}
	}

	// A later pass, on a fresh service, may answer differently from the
	// first only in the request ID.
	again := newClient(service.NewHandler(service.New(service.Options{}), service.ServerConfig{}), "/v1/predict")
	again.do(shape.body())
	if !sameAnswer(served, again.rec.body.Bytes()) {
		t.Errorf("fresh service answers differently:\n%s\n%s", served, again.rec.body.Bytes())
	}
	bad := bytes.Replace(again.rec.body.Bytes(), []byte(`"iterations": `), []byte(`"iterations": 1`), 1)
	if sameAnswer(served, bad) {
		t.Errorf("corrupted repeat passes the cross-pass check: %s", bad)
	}
}

// TestHitCheck: the first request of a key is a miss and fails the
// predict-hit check; the repeat is served from the cache and passes.
func TestHitCheck(t *testing.T) {
	body := predictShapes(2, saltPredictHit, 1)[0].body()
	cl := newClient(service.NewHandler(service.New(service.Options{}), service.ServerConfig{}), "/v1/predict")
	cl.do(body)
	if cachedResponse(cl.rec.body.Bytes()) {
		t.Errorf("first request reads as a cache hit: %s", cl.rec.body.Bytes())
	}
	cl.do(body)
	if !cachedResponse(cl.rec.body.Bytes()) {
		t.Errorf("repeated request does not read as a cache hit: %s", cl.rec.body.Bytes())
	}
}

func TestPlanCheck(t *testing.T) {
	resp := func(strategy string, nodes int, rt float64) []byte {
		best := map[string]any{"nodes": nodes, "responseTime": rt}
		body, err := json.Marshal(map[string]any{"strategy": strategy, "best": best})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	none, err := json.Marshal(map[string]any{"strategy": service.StrategySearch})
	if err != nil {
		t.Fatal(err)
	}
	grid := resp(service.StrategyGrid, 8, 100)
	if err := checkPlanResponse(resp(service.StrategySearch, 8, 100), grid); err != nil {
		t.Errorf("matching best fails the check: %v", err)
	}
	for name, got := range map[string][]byte{
		"other node count":    resp(service.StrategySearch, 9, 95),
		"no best":             none,
		"exhaustive strategy": resp(service.StrategyGrid, 8, 100),
	} {
		if checkPlanResponse(got, grid) == nil {
			t.Errorf("%s passes the check", name)
		}
	}
}

// TestPlanFallbackCheck serves a deadline query of the workload through the
// real handler, which must stay on the bisection path, then marks the
// response as having evaluated the whole axis.
func TestPlanFallbackCheck(t *testing.T) {
	bases := drawPlanBases(5, 1)
	bounds, err := solvePlanBounds(bases)
	if err != nil {
		t.Fatal(err)
	}
	q := planQueries(5, bases, bounds, 1)[0]
	cl := newClient(service.NewHandler(service.New(service.Options{}), service.ServerConfig{}), "/v1/plan")
	if st := cl.do(q.body(false)); st != 200 {
		t.Fatalf("plan status %d: %s", st, cl.rec.body.Bytes())
	}
	body := cl.rec.body.Bytes()
	if planFellBack(body) {
		t.Fatalf("search response reads as a fallback: %s", body)
	}
	var resp planResultWire
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(body, []byte(evaluatedField))
	if i < 0 {
		t.Fatalf("no %q field in %s", evaluatedField, body)
	}
	j := i + len(evaluatedField)
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	whole := slices.Concat(body[:i+len(evaluatedField)], []byte("64"), body[j:])
	if !planFellBack(whole) {
		t.Errorf("response that evaluated all 64 candidates passes the check")
	}
}

func TestFiguresCheck(t *testing.T) {
	single := figurePoint{Fig: "fig10", Nodes: 4, Jobs: 1, InputMB: 1024, BlockMB: 128}
	good := bench.Point{Sim: 100, ForkJoin: 110, Tripathi: 120}
	if err := checkPoint(single, good); err != nil {
		t.Fatalf("valid point fails the check: %v", err)
	}
	for name, p := range map[string]bench.Point{
		"NaN":              {Sim: 100, ForkJoin: math.NaN(), Tripathi: 120},
		"zero":             {Sim: 0, ForkJoin: 110, Tripathi: 120},
		"fork/join band":   {Sim: 100, ForkJoin: 131, Tripathi: 140},
		"tripathi band":    {Sim: 100, ForkJoin: 110, Tripathi: 146},
		"underestimation":  {Sim: 100, ForkJoin: 81, Tripathi: 120},
		"infinite tripath": {Sim: 100, ForkJoin: 110, Tripathi: math.Inf(1)},
	} {
		if checkPoint(single, p) == nil {
			t.Errorf("%s passes the check", name)
		}
	}

	points := []figurePoint{single, single, single, single}
	results := map[int][]pointResult{}
	for i := range points {
		results[i] = []pointResult{{Point: good}, {Point: good}}
	}
	if n := checkFigures(points, results); n != 0 {
		t.Fatalf("valid results fail %d evaluations", n)
	}
	results[0][1].Point.Sim = 101
	if n := checkFigures(points, results); n != 1 {
		t.Errorf("diverging re-evaluation fails %d evaluations, want 1", n)
	}
	results[0][1].Point = good
	low := bench.Point{Sim: 100, ForkJoin: 110, Tripathi: 105}
	results[0] = []pointResult{{Point: low}}
	results[1] = []pointResult{{Point: low}}
	if n := checkFigures(points, results); n != 2 {
		t.Errorf("tripathi below fork/join at half the points fails %d evaluations, want 2", n)
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := declared(spec.EndToEnd); !maps.Equal(got, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", got, endToEndUnits)
	}
	if got := declared(spec.PerLayer); !maps.Equal(got, layerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", got, layerUnits)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// fakeBench is a workload whose pass p gives operation i the latency
// lat(p, i); operation 0 fails on pass 0.
type fakeBench struct {
	n, passes int
	lat       func(p, i int) float64
}

func (f *fakeBench) setup() error                    { return nil }
func (f *fakeBench) ops() int                        { return f.n }
func (f *fakeBench) check() (int, error)             { return 0, nil }
func (f *fakeBench) layers(map[string]float64) error { return nil }
func (f *fakeBench) traceSpans() []span              { return nil }
func (f *fakeBench) pass(lat []float64, _ bool) (int, error) {
	failed := 0
	for i := range lat {
		lat[i] = f.lat(f.passes, i)
		if f.passes == 0 && i == 0 {
			lat[i], failed = math.Inf(1), 1
		}
	}
	f.passes++
	return failed, nil
}

// TestRunPasses checks that an operation's latency is its best over the
// passes of its kind, and that a failure in one pass is counted but does not
// hide the operation's other passes.
func TestRunPasses(t *testing.T) {
	f := &fakeBench{n: 4, lat: func(p, i int) float64 { return float64((i+1)*10 + (p+1)%3) }}
	r, err := runPasses(f, 3, false, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Passes add 1, 2, 0: the best is the third pass, (i+1)*10.
	if want := []float64{10, 20, 30, 40}; !slices.Equal(r.plain, want) {
		t.Errorf("best latencies %v, want %v", r.plain, want)
	}
	if r.attempted != 12 || r.failed != 1 {
		t.Errorf("%d attempted, %d failed; want 12, 1", r.attempted, r.failed)
	}
	rate, s := summarizeBest(r.plain)
	if rate != 0.04 || s.p50 != 20 || s.hasP99 || s.maximum != 40 {
		t.Errorf("summary %v ops/s, %+v", rate, s)
	}

	f = &fakeBench{n: 2, lat: func(p, i int) float64 { return float64(10 - p) }}
	r, err = runPasses(f, 4, true, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.plain, []float64{8, 8}) || !slices.Equal(r.traced, []float64{7, 7}) {
		t.Errorf("plain %v traced %v, want [8 8] and [7 7]", r.plain, r.traced)
	}
}

// TestServingPasses runs predict-hit and predict-miss passes through the
// real handler and checks them.
func TestServingPasses(t *testing.T) {
	for _, kind := range []servingKind{kindHit, kindMiss} {
		b := newServingBench(kind, 1, 0)
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		r, err := runPasses(b, 2, false, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted != 2*minTailSamples {
			t.Errorf("kind %d: %d attempted, %d failed", kind, r.attempted, r.failed)
		}
		if failed, err := b.check(); err != nil || failed != 0 {
			t.Errorf("kind %d check: %d failed, %v", kind, failed, err)
		}
	}
}
