package service

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/workload"
)

// mixSpec is a 2-class plan template: fast current-generation nodes plus a
// slower older generation.
func mixSpec() cluster.Spec {
	spec := cluster.Default(0)
	spec.NumNodes = 0
	spec.Classes = []cluster.NodeClass{
		{Name: "fast", Count: 4, Capacity: cluster.Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 1, DiskMBps: 240, NetworkMBps: 110, Speed: 1},
		{Name: "slow", Count: 4, Capacity: cluster.Resource{MemoryMB: 32768, VCores: 32},
			CPUs: 6, Disks: 1, DiskMBps: 140, NetworkMBps: 110, Speed: 0.5},
	}
	return spec
}

func TestPlanClassMixGrid(t *testing.T) {
	s := New(Options{Workers: 4})
	// Multi-wave workload (64 maps over ≤32 lanes): map completions stagger
	// in every mix, keeping the slow-start overlap credit comparable across
	// candidates (a single synchronized wave hits the border rule's known
	// conservatism on uniform clusters).
	job, err := workload.NewJob(0, 8192, 128, 4, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{
		Spec: mixSpec(), Job: job,
		ClassCounts: [][]int{{4, 0}, {2, 2}, {0, 4}, {4, 4}},
	}
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyGrid || resp.Evaluated != 4 {
		t.Fatalf("strategy=%q evaluated=%d", resp.Strategy, resp.Evaluated)
	}
	rt := map[string]float64{}
	for _, c := range resp.Candidates {
		if c.Err != "" {
			t.Fatalf("candidate %v failed: %s", c.ClassCounts, c.Err)
		}
		key := ""
		for _, n := range c.ClassCounts {
			key += string(rune('0'+n)) + ","
		}
		rt[key] = c.ResponseTime
		wantNodes := 0
		for _, n := range c.ClassCounts {
			wantNodes += n
		}
		if c.Nodes != wantNodes {
			t.Errorf("mix %v: Nodes = %d, want %d", c.ClassCounts, c.Nodes, wantNodes)
		}
	}
	// All-fast beats all-slow at equal size, and the mix lands in between.
	if !(rt["4,0,"] < rt["2,2,"] && rt["2,2,"] < rt["0,4,"]) {
		t.Errorf("mix ordering wrong: fast=%v mix=%v slow=%v", rt["4,0,"], rt["2,2,"], rt["0,4,"])
	}
	// Adding the slow generation to the fast cluster must not hurt.
	if rt["4,4,"] > rt["4,0,"]*(1+1e-9) {
		t.Errorf("4+4 mix slower than 4 fast alone: %v vs %v", rt["4,4,"], rt["4,0,"])
	}
}

func TestPlanClassMixValidation(t *testing.T) {
	s := New(Options{Workers: 2})
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*PlanRequest){
		"flat spec":      func(r *PlanRequest) { r.Spec = cluster.Default(4) },
		"nodes conflict": func(r *PlanRequest) { r.Nodes = []int{2, 4} },
		"short mix":      func(r *PlanRequest) { r.ClassCounts = [][]int{{1}} },
		"negative count": func(r *PlanRequest) { r.ClassCounts = [][]int{{-1, 2}} },
		"empty mix":      func(r *PlanRequest) { r.ClassCounts = [][]int{{0, 0}} },
		// A bare Nodes sweep over a class-form template must be rejected,
		// not silently evaluated against the unchanged template.
		"nodes axis on class spec": func(r *PlanRequest) { r.ClassCounts = nil; r.Nodes = []int{2, 4, 8} },
	} {
		req := PlanRequest{Spec: mixSpec(), Job: job, ClassCounts: [][]int{{2, 2}}}
		mutate(&req)
		if _, err := s.Plan(context.Background(), req); err == nil || !IsInvalidRequest(err) {
			t.Errorf("%s: want invalid-request error, got %v", name, err)
		}
	}
}

// TestPlanClassMixDeadlineSearch sweeps mixes under a deadline through the
// search strategy and cross-checks the winner against the exhaustive grid —
// for a non-chain axis (incomparable trade-off mixes: evaluated
// exhaustively, never pruned) and a chain-ordered axis (each mix adds nodes
// componentwise: the bisection applies and must prune).
func TestPlanClassMixDeadlineSearch(t *testing.T) {
	job, err := workload.NewJob(0, 2048, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	axes := map[string][][]int{
		"non-chain": {{1, 0}, {2, 0}, {2, 2}, {4, 0}, {4, 2}, {4, 4}, {4, 6}, {4, 8}},
		"chain":     {{1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 3}, {8, 4}, {10, 5}, {12, 6}},
	}
	for name, mixes := range axes {
		base := PlanRequest{Spec: mixSpec(), Job: job, ClassCounts: mixes}
		s := New(Options{Workers: 4})
		grid := base
		grid.Exhaustive = true
		pruned := 0
		for _, deadline := range []float64{80, 120, 200, 400} {
			g := grid
			g.DeadlineSec = deadline
			gridResp, err := s.Plan(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}

			fast := New(Options{Workers: 4}) // fresh cache: count real evaluations
			q := base
			q.DeadlineSec = deadline
			searchResp, err := fast.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if searchResp.Strategy != StrategySearch {
				t.Fatalf("%s deadline %v: strategy = %q", name, deadline, searchResp.Strategy)
			}
			pruned += searchResp.Pruned
			if name == "non-chain" && searchResp.Pruned != 0 {
				t.Errorf("non-chain axis pruned %d points; incomparable mixes must be exhaustive", searchResp.Pruned)
			}
			if (gridResp.Best == nil) != (searchResp.Best == nil) {
				t.Fatalf("%s deadline %v: best disagreement: grid %+v search %+v", name, deadline, gridResp.Best, searchResp.Best)
			}
			if gridResp.Best != nil {
				// Response times agree within the chained-solve tolerance:
				// the search's axis walks solve their misses chained (1e-6
				// relative core contract; observed ~1e-13).
				g, s := gridResp.Best, searchResp.Best
				rel := math.Abs(g.ResponseTime-s.ResponseTime) / g.ResponseTime
				if g.Nodes != s.Nodes || !reflect.DeepEqual(g.ClassCounts, s.ClassCounts) || rel > 1e-6 {
					t.Errorf("%s deadline %v: grid best %+v != search best %+v", name, deadline, g, s)
				}
			}
		}
		if name == "chain" && pruned == 0 {
			t.Error("chain axis never pruned; bisection fast path not engaged")
		}
	}
}

// The canonical cache key must separate specs that differ only in their
// class tables, and a flat spec from its class-form twin.
func TestKeyDistinguishesClasses(t *testing.T) {
	job, err := workload.NewJob(0, 1024, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	flat := cluster.Default(8)
	het := mixSpec()
	het2 := mixSpec()
	het2.Classes[1].Speed = 0.9
	het3 := mixSpec()
	het3.Classes[0], het3.Classes[1] = het3.Classes[1], het3.Classes[0]
	keys := []string{
		predictKey(PredictRequest{Spec: flat, Job: job, NumJobs: 1}),
		predictKey(PredictRequest{Spec: het, Job: job, NumJobs: 1}),
		predictKey(PredictRequest{Spec: het2, Job: job, NumJobs: 1}),
		predictKey(PredictRequest{Spec: het3, Job: job, NumJobs: 1}),
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("cache key collision across class tables: %v", keys)
		}
	}
}

// The metrics endpoint defaults to Prometheus text exposition; JSON stays
// available under Accept: application/json.
func TestMetricsPrometheus(t *testing.T) {
	svc := New(Options{Workers: 2, CacheSize: 8})
	ts := httptest.NewServer(NewHandler(svc, ServerConfig{Timeout: 30 * time.Second}))
	defer ts.Close()

	job, err := workload.NewJob(0, 512, 128, 1, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // one miss + one hit
		if _, err := svc.Predict(context.Background(), PredictRequest{Spec: cluster.Default(2), Job: job}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want Prometheus text", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mrserved_requests_total counter",
		`mrserved_requests_total{kind="predict"} 2`,
		"# TYPE mrserved_cache_hits_total counter",
		"mrserved_cache_hits_total 1",
		"mrserved_cache_misses_total 1",
		"# TYPE mrserved_inflight_sims gauge",
		"mrserved_inflight_sims 0",
		"mrserved_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics body missing %q:\n%s", want, text)
		}
	}
}
