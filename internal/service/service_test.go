package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/core"
	"hadoop2perf/internal/workload"
	"hadoop2perf/internal/yarn"
)

func testJob(t testing.TB, inputMB float64, reduces int) workload.Job {
	t.Helper()
	job, err := workload.NewJob(0, inputMB, 128, reduces, workload.WordCount())
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestPredictCachesRepeatedRequests(t *testing.T) {
	s := New(Options{Workers: 2, CacheSize: 8})
	req := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)}

	first, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.Prediction.ResponseTime <= 0 {
		t.Fatalf("response = %v", first.Prediction.ResponseTime)
	}

	second, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical request was not served from cache")
	}
	if second.Prediction.ResponseTime != first.Prediction.ResponseTime {
		t.Errorf("cached response drifted: %v vs %v",
			second.Prediction.ResponseTime, first.Prediction.ResponseTime)
	}

	m := s.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Errorf("metrics: %d misses / %d hits, want 1 / 1", m.CacheMisses, m.CacheHits)
	}
	if m.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.HitRate)
	}
}

func TestPredictKeyDistinguishesRequests(t *testing.T) {
	base := PredictRequest{Spec: cluster.Default(4), Job: testJob(t, 1024, 4), NumJobs: 1}
	variants := []PredictRequest{base}
	v := base
	v.NumJobs = 2
	variants = append(variants, v)
	v = base
	v.Estimator = core.EstimatorTripathi
	variants = append(variants, v)
	v = base
	v.Spec.NumNodes = 6
	variants = append(variants, v)
	v = base
	v.Job.BlockSizeMB = 64
	variants = append(variants, v)
	v = base
	v.Job.Profile = workload.Grep()
	variants = append(variants, v)

	seen := map[string]int{}
	for i, r := range variants {
		k := predictKey(r)
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide on key %s", prev, i, k)
		}
		seen[k] = i
	}
}

// TestPredictSingleflight hammers one request from many goroutines: the
// model must run once, and every other caller must be served the shared or
// cached result. Run under -race this also exercises the cache, flight
// group and metrics for data races.
func TestPredictSingleflight(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 8})
	req := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), req); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Errorf("model ran %d times for one unique request", m.CacheMisses)
	}
	if m.CacheHits != callers-1 {
		t.Errorf("hits = %d, want %d", m.CacheHits, callers-1)
	}
}

// TestConcurrentMixedRequests drives distinct predictions, simulations and
// plans through one service at once (-race coverage of the whole engine).
func TestConcurrentMixedRequests(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 64})
	spec := cluster.Default(2)
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := testJob(t, float64(256+128*i), 1+i%3)
			if _, err := s.Predict(context.Background(), PredictRequest{Spec: spec, Job: job}); err != nil {
				errs <- err
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := testJob(t, 256, 1)
			_, err := s.Simulate(context.Background(), SimulateRequest{
				Spec: spec, Jobs: []workload.Job{job}, Seed: int64(i), Reps: 1,
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Plan(context.Background(), PlanRequest{
			Spec: spec, Job: testJob(t, 512, 2), Nodes: []int{2, 4}, Reducers: []int{1, 2},
		})
		if err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.PredictRequests < 8 || m.SimulateRequests != 2 || m.PlanRequests != 1 {
		t.Errorf("request counters: %+v", m)
	}
	if m.InFlightSims != 0 {
		t.Errorf("in-flight sims did not drain: %d", m.InFlightSims)
	}
	if m.SimRuns != 2 {
		t.Errorf("sim runs = %d, want 2", m.SimRuns)
	}
}

func TestPredictValidation(t *testing.T) {
	s := New(Options{})
	bad := PredictRequest{Spec: cluster.Default(2)} // zero job
	if _, err := s.Predict(context.Background(), bad); err == nil {
		t.Error("invalid job accepted")
	}
	badEst := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2), Estimator: core.Estimator(99)}
	if _, err := s.Predict(context.Background(), badEst); err == nil {
		t.Error("invalid estimator accepted")
	}
	if _, err := s.Simulate(context.Background(), SimulateRequest{Spec: cluster.Default(2)}); err == nil {
		t.Error("simulate with no jobs accepted")
	}
}

func TestPredictHonorsCancellation(t *testing.T) {
	// A single-worker pool with its slot held: a canceled caller must
	// return promptly with ctx.Err() instead of queueing forever.
	s := New(Options{Workers: 1})
	if _, err := s.admission.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.admission.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Predict(ctx, PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = s.Predict(ctx2, PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)})
	if err == nil {
		t.Error("expected deadline error while pool is saturated")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancellation did not return promptly")
	}
}

func TestSimulateMatchesDirectRun(t *testing.T) {
	s := New(Options{Workers: 2})
	job := testJob(t, 256, 1)
	resp, err := s.Simulate(context.Background(), SimulateRequest{
		Spec: cluster.Default(2), Jobs: []workload.Job{job}, Seed: 1, Reps: 1,
		Policy: yarn.PolicyFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.MeanResponse() <= 0 {
		t.Fatalf("mean response = %v", resp.Result.MeanResponse())
	}
	again, err := s.Simulate(context.Background(), SimulateRequest{
		Spec: cluster.Default(2), Jobs: []workload.Job{job}, Seed: 1, Reps: 1,
		Policy: yarn.PolicyFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical simulation not cached")
	}
	if again.Result.MeanResponse() != resp.Result.MeanResponse() {
		t.Error("cached simulation drifted")
	}
}

func TestCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed comparison in -short mode")
	}
	s := New(Options{Workers: 2})
	resp, err := s.Compare(context.Background(), CompareRequest{
		Spec: cluster.Default(2), Job: testJob(t, 512, 2), Seed: 1, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Simulated <= 0 || resp.ForkJoin <= 0 || resp.Tripathi <= 0 {
		t.Errorf("comparison = %+v", resp)
	}
	if resp.Cached {
		t.Error("first compare reported cached")
	}
	again, err := s.Compare(context.Background(), CompareRequest{
		Spec: cluster.Default(2), Job: testJob(t, 512, 2), Seed: 1, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated compare not cached")
	}
}

func TestLRUEviction(t *testing.T) {
	// LRU ordering is per shard: pick three keys that collide on one shard
	// so the recency behavior is observable through the public surface.
	target := shardOf("a")
	keys := []string{"a"}
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("k%d", i); shardOf(k) == target {
			keys = append(keys, k)
		}
	}
	a, b, c3 := keys[0], keys[1], keys[2]
	c := newResultTable(2*cacheShards, 0) // two entries per shard
	c.add(a, 1)
	c.add(b, 2)
	if _, ok := c.get(a); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.add(c3, 3) // evicts b (least recently used on the shared shard)
	if _, ok := c.get(b); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get(a); !ok {
		t.Error("a evicted despite recent use")
	}
}

// The result table must bound its total population near the requested
// capacity (per-shard slices, rounded up) while keys spread over shards,
// and hits must keep returning the stored values.
func TestShardedCacheCapacityAndSpread(t *testing.T) {
	const max = 64
	c := newResultTable(max, 0)
	for i := 0; i < 10*max; i++ {
		c.add(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.len(); n < max/2 || n > max+cacheShards {
		t.Errorf("population %d far from capacity %d", n, max)
	}
	c.add("hot", "v")
	if v, ok := c.get("hot"); !ok || v != "v" {
		t.Errorf("hot entry lost: %v %v", v, ok)
	}
	shards := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		shards[shardOf(fmt.Sprintf("key-%d", i))] = true
	}
	if len(shards) < cacheShards/2 {
		t.Errorf("64 keys landed on only %d shards", len(shards))
	}
}

// TestFlightFollowerSurvivesLeaderCancel: a waiter must not inherit the
// leader's context cancellation — it retries as the new leader.
func TestFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	g := newResultTable(cacheShards, 0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderRelease := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.do(leaderCtx, "k", func() (any, bool, error) {
			close(leaderStarted)
			<-leaderRelease
			return nil, false, leaderCtx.Err() // leader dies of its own cancellation
		})
		if err == nil {
			t.Error("leader expected its own cancellation error")
		}
	}()

	<-leaderStarted
	followerDone := make(chan struct{})
	var followerVal any
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerVal, _, followerErr = g.do(context.Background(), "k", func() (any, bool, error) {
			return "recomputed", true, nil
		})
		close(followerDone)
	}()

	// Let the follower enqueue behind the leader, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	close(leaderRelease)

	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed")
	}
	wg.Wait()
	if followerErr != nil {
		t.Fatalf("follower inherited leader's fate: %v", followerErr)
	}
	if followerVal != "recomputed" {
		t.Fatalf("follower value = %v", followerVal)
	}
}

// TestSimulateHonorsCancellation: the engine threads ctx into the event
// loop, so a canceled caller aborts its run (no orphaned background work),
// frees the pool slot, and a later retry computes fresh and succeeds.
func TestSimulateHonorsCancellation(t *testing.T) {
	s := New(Options{Workers: 1})
	// Heavy enough (hundreds of ms, many engine poll intervals) that the
	// 1 ms deadline reliably fires mid-run.
	req := SimulateRequest{
		Spec: cluster.Default(2), Jobs: []workload.Job{testJob(t, 20*1024, 4)},
		Seed: 1, Reps: 25,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := s.Simulate(ctx, req); err == nil {
		t.Fatal("expected cancellation error")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("canceled simulation returned after %v", d)
	}
	m := s.Metrics()
	if m.InFlightSims != 0 {
		t.Errorf("in-flight sims after cancellation: %d", m.InFlightSims)
	}
	if m.SimRuns != 0 {
		t.Errorf("aborted simulation counted as completed (%d runs)", m.SimRuns)
	}
	// The pool slot was released; a small fresh run completes.
	small := SimulateRequest{
		Spec: cluster.Default(2), Jobs: []workload.Job{testJob(t, 256, 1)},
		Seed: 1, Reps: 1,
	}
	if _, err := s.Simulate(context.Background(), small); err != nil {
		t.Fatalf("post-cancellation simulate failed: %v", err)
	}
	if s.Metrics().SimRuns != 1 {
		t.Errorf("sim runs = %d, want 1", s.Metrics().SimRuns)
	}
}

// TestRequestLimits: quantities that scale work or memory are bounded.
func TestRequestLimits(t *testing.T) {
	s := New(Options{})
	job := testJob(t, 512, 2)
	spec := cluster.Default(2)

	if _, err := s.Predict(context.Background(), PredictRequest{
		Spec: spec, Job: job, NumJobs: MaxNumJobs + 1,
	}); err == nil {
		t.Error("oversized NumJobs accepted by Predict")
	}
	if _, err := s.Simulate(context.Background(), SimulateRequest{
		Spec: spec, Jobs: []workload.Job{job}, Reps: MaxSimReps + 1,
	}); err == nil {
		t.Error("oversized Reps accepted by Simulate")
	}
	if _, err := s.Simulate(context.Background(), SimulateRequest{
		Spec: spec, Jobs: make([]workload.Job, MaxSimJobs+1),
	}); err == nil {
		t.Error("oversized job list accepted by Simulate")
	}
	if _, err := s.Compare(context.Background(), CompareRequest{
		Spec: spec, Job: job, NumJobs: MaxNumJobs + 1,
	}); err == nil {
		t.Error("oversized NumJobs accepted by Compare")
	}
	if _, err := s.Plan(context.Background(), PlanRequest{
		Spec: spec, Job: job, Reps: MaxSimReps + 1,
	}); err == nil {
		t.Error("oversized Reps accepted by Plan")
	}
}

// TestPredictCacheIgnoresJobID: the analytic model never reads Job.ID, so
// predictions for the same workload shape share one cache entry regardless
// of caller-assigned IDs.
func TestPredictCacheIgnoresJobID(t *testing.T) {
	s := New(Options{Workers: 2})
	req := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)}
	if _, err := s.Predict(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Job.ID = 4711
	resp, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("different Job.ID defeated the predict cache")
	}
}

// TestCompareReusesSimulateCache: Compare's inner simulation shares the
// cache with direct Simulate calls of the same configuration.
func TestCompareReusesSimulateCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed in -short mode")
	}
	s := New(Options{Workers: 2})
	job := testJob(t, 256, 1)
	if _, err := s.Simulate(context.Background(), SimulateRequest{
		Spec: cluster.Default(2), Jobs: []workload.Job{job}, Seed: 5, Reps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if runs := s.Metrics().SimRuns; runs != 1 {
		t.Fatalf("sim runs = %d after Simulate", runs)
	}
	if _, err := s.Compare(context.Background(), CompareRequest{
		Spec: cluster.Default(2), Job: job, NumJobs: 1, Seed: 5, Reps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if runs := s.Metrics().SimRuns; runs != 1 {
		t.Errorf("Compare re-ran the simulation (%d runs)", runs)
	}
}

// TestValidationErrorsAreTyped: validation failures are distinguishable
// from engine failures so the HTTP layer can map them to 400 vs 500.
func TestValidationErrorsAreTyped(t *testing.T) {
	s := New(Options{})
	_, err := s.Predict(context.Background(), PredictRequest{Spec: cluster.Default(2)})
	if !IsInvalidRequest(err) {
		t.Errorf("validation error not typed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Predict(ctx, PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)})
	if IsInvalidRequest(err) {
		t.Errorf("context error misclassified as invalid request: %v", err)
	}
}
