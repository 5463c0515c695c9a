// Command perfbench is the repository's benchmark: it runs one workload
// against the prediction service (driven in-process through its HTTP
// handler) or the paper's figure evaluation, checks the outputs, and prints
// one JSON result line.
//
//	bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 12 --trace 0
//
// A run is a fixed list of operations, generated from the seed and sized so
// that its passes take about --seconds on a two-core machine, executed in a
// few passes; each operation's latency is its best over the passes. With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics and writes its spans to
// .bench_build/spans/. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"predict-miss", "predict-hit", "plan-deadline", "figures"}

// setupRounds is how many times an end-to-end run sets up anew;
// setup_s counts their median, and the passes run on the last one.
const setupRounds = 5

// Passes per run. On a shared two-core VM, identical work slows by 20–70%
// in bursts of seconds to minutes (other tenants contend for the memory
// system), and interference only ever adds time, so an operation's best
// latency over several passes spread across the run is what repeats from
// run to run.
const (
	servingPasses = 7
	figurePasses  = 3
	// wallCapFactor stops a run after this many times --seconds of passes,
	// on a machine much slower than the one the lists are sized for.
	wallCapFactor = 2
)

// startCPU is the CPU time the process used before main ran: runtime
// start-up and package initialization.
var startCPU float64

// workloadBench is one workload's set-up, passes, output check and
// per-layer report.
type workloadBench interface {
	// setup builds fresh state, discarding the previous set-up.
	setup() error
	// ops is the number of operations in one pass.
	ops() int
	// pass runs every operation once, writes each one's latency in seconds
	// to lat (+Inf for a failed operation) and returns the number that
	// failed. Traced passes record spans.
	pass(lat []float64, traced bool) (int, error)
	// check verifies the outputs of every pass and returns the number of
	// operations that failed it.
	check() (int, error)
	// layers adds the per-layer metrics of a traced run to m.
	layers(m map[string]float64) error
	// traceSpans returns the spans recorded by traced passes.
	traceSpans() []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// guards are the run conditions printed with every result.
type guards struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

func main() {
	startCPU = cpuSeconds()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seedFlag := fs.Int64("seed", 1, "input seed (any integer)")
	seconds := fs.Float64("seconds", 20, "seconds the passes of a run take on a two-core machine")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "where traced runs write their spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	seed := uint64(*seedFlag) // the generators key their streams on 64 bits
	var b workloadBench
	passes := servingPasses
	switch *name {
	case "predict-miss":
		b = newServingBench(kindMiss, seed, *seconds/servingPasses)
	case "predict-hit":
		b = newServingBench(kindHit, seed, *seconds/servingPasses)
	case "plan-deadline":
		b = newServingBench(kindPlan, seed, *seconds/servingPasses)
	case "figures":
		b, passes = newFiguresBench(seed), figurePasses
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames)
	}
	g := guards{
		Workload: *name, Seed: *seedFlag, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: 1,
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if g.Commit == "" {
		g.Commit = "unknown"
	}

	// The traced run reports no set-up time, so it sets up once.
	rounds := setupRounds
	if *trace == 1 {
		rounds = 1
	}
	setups := make([]float64, rounds)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	wallCap := time.Duration(wallCapFactor * *seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = measure(b, *name, passes, wallCap, setups)
	} else {
		res, err = measureTraced(b, passes, wallCap)
		if err == nil {
			err = writeSpans(filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seedFlag)), b.traceSpans())
		}
	}
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	gl, err := json.Marshal(map[string]guards{"guards": g})
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", gl, out)
	return err
}

// passResult is the outcome of a run's passes: each operation's best
// latency over the plain passes and over the traced ones, and runtime
// readings around the first pass.
type passResult struct {
	plain, traced     []float64
	attempted, failed int
	rt0, rt1          runtimeSample
}

// runPasses runs up to n passes; with alternate set, every second pass is
// traced. It stops early once the passes have taken wallCap, after at least
// one pass of each kind.
func runPasses(b workloadBench, n int, alternate bool, wallCap time.Duration) (passResult, error) {
	infs := func() []float64 {
		s := make([]float64, b.ops())
		for i := range s {
			s[i] = math.Inf(1)
		}
		return s
	}
	r := passResult{plain: infs()}
	minPasses := 1
	if alternate {
		r.traced, minPasses = infs(), 2
	}
	lat := make([]float64, b.ops())
	start := time.Now()
	for p := 0; p < n; p++ {
		traced := alternate && p%2 == 1
		// Each pass starts on a collected heap, so one pass's garbage does
		// not land on the next and peak memory does not depend on GC timing.
		runtime.GC()
		if p == 0 {
			r.rt0 = readRuntime()
		}
		failed, err := b.pass(lat, traced)
		if err != nil {
			return passResult{}, fmt.Errorf("pass %d: %w", p, err)
		}
		if p == 0 {
			r.rt1 = readRuntime()
		}
		r.attempted += len(lat)
		r.failed += failed
		best := r.plain
		if traced {
			best = r.traced
		}
		for i, v := range lat {
			best[i] = min(best[i], v)
		}
		if p+1 >= minPasses && time.Since(start) > wallCap {
			logf("stopped after %d of %d passes (%v)", p+1, n, time.Since(start).Round(time.Millisecond))
			break
		}
	}
	return r, nil
}

// summarizeBest summarizes best latencies: operations that succeeded in at
// least one pass, their throughput at those latencies, and their median and
// tail.
func summarizeBest(best []float64) (opsPerSec float64, s latencySummary) {
	ok := make([]float64, 0, len(best))
	var sum float64
	for _, v := range best {
		if !math.IsInf(v, 1) {
			ok = append(ok, v)
			sum += v
		}
	}
	if sum > 0 {
		opsPerSec = float64(len(ok)) / sum
	}
	return opsPerSec, summarize(ok)
}

// measure is the end-to-end run: the passes, then the output checks.
// setup_s is the CPU time before main plus the median set-up. ops_per_s,
// p50_ms and p99_ms come from each operation's best latency; a pass list of
// under minTailSamples operations (figures) reports its slowest operation in
// place of p99 (see README.md).
func measure(b workloadBench, name string, passes int, wallCap time.Duration, setups []float64) (result, error) {
	r, err := runPasses(b, passes, false, wallCap)
	if err != nil {
		return result{}, err
	}
	checkFailed, err := b.check()
	if err != nil {
		return result{}, fmt.Errorf("check: %w", err)
	}
	rate, s := summarizeBest(r.plain)
	tail := s.p99
	if !s.hasP99 {
		tail = s.maximum
	}
	logf("%s: %d ops, %d failed, %d check failures", name, r.attempted, r.failed, checkFailed)
	return result{
		Correct:   r.failed == 0 && checkFailed == 0,
		Attempted: r.attempted,
		Failed:    min(r.attempted, r.failed+checkFailed),
		Metrics: withUnits(endToEndUnits, map[string]float64{
			"setup_s":    startCPU + median(setups),
			"ops_per_s":  rate,
			"p50_ms":     1e3 * s.p50,
			"p99_ms":     1e3 * tail,
			"max_rss_mb": maxRSSMB(),
		}),
	}, nil
}

// endToEndUnits is every end-to-end metric with its unit, as BENCHMARK.json
// lists them.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "max_rss_mb": "MB",
}

// withUnits attaches units to measured values; a metric without a value
// reports 0.
func withUnits(units map[string]string, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{vals[name], unit}
	}
	return out
}

// layerUnits is every per-layer metric with its unit, as BENCHMARK.json
// lists them. A layer a workload never enters reports 0.
var layerUnits = map[string]string{
	"http.self_us": "us", "http.allocs_per_op": "count",
	"admit.decision_us": "us", "admit.sheds": "count",
	"pool.queue_wait_us": "us",
	"cache.lookup_us":    "us", "cache.hit_ratio": "ratio", "cache.entries": "count",
	"plan.search_ms": "ms", "plan.predicts_per_op": "count", "plan.candidates_per_op": "count",
	"plan.warm_share": "ratio", "plan.model_share": "ratio",
	"model.solve_ms": "ms", "model.outer_iters": "count", "model.inner_sweeps": "count",
	"model.allocs_per_solve": "count", "model.bytes_per_solve": "B", "model.unconverged": "count",
	"model.share":    "ratio",
	"ptree.build_us": "us", "ptree.allocs_per_build": "count", "ptree.leaves": "count",
	"estimator.tripathi_ms": "ms", "estimator.forkjoin_ms": "ms", "estimator.tripathi_share": "ratio",
	"sim.run_ms": "ms", "sim.events": "count", "sim.ns_per_event": "ns", "sim.share": "ratio",
	"gc.cpu_share": "ratio", "gc.cycles_per_kop": "count", "heap.alloc_mb_per_op": "MB",
	"trace.overhead": "ratio", "unattributed_share": "ratio",
}

// measureTraced is the separate traced run: plain and traced passes
// alternate (their best-latency rates give trace.overhead), then the output
// checks over all of them and the layer replay.
func measureTraced(b workloadBench, passes int, wallCap time.Duration) (result, error) {
	r, err := runPasses(b, passes, true, wallCap)
	if err != nil {
		return result{}, err
	}
	failed, err := b.check()
	if err != nil {
		return result{}, fmt.Errorf("check: %w", err)
	}
	m := make(map[string]float64, len(layerUnits))
	if err := b.layers(m); err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	m["gc.cpu_share"], m["gc.cycles_per_kop"], m["heap.alloc_mb_per_op"] = runtimeDelta(r.rt0, r.rt1, b.ops())
	plain, _ := summarizeBest(r.plain)
	traced, _ := summarizeBest(r.traced)
	if plain > 0 {
		m["trace.overhead"] = 1 - traced/plain
	}
	return result{
		Correct:   r.failed == 0 && failed == 0,
		Attempted: r.attempted,
		Failed:    min(r.attempted, r.failed+failed),
		Metrics:   withUnits(layerUnits, m),
	}, nil
}
