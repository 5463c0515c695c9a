package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hadoop2perf/internal/cluster"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/trace"
	"hadoop2perf/internal/workload"
)

// simTrace runs one simulation and returns its result, the raw material a
// calibration ingests.
func simTrace(t testing.TB, inputMB float64, seed int64) mrsim.Result {
	t.Helper()
	res, err := mrsim.Run(mrsim.Config{
		Spec: cluster.Default(2), Jobs: []workload.Job{testJob(t, inputMB, 2)}, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// calibrate stores a profile fitted from a fresh simulation under name.
func calibrate(t *testing.T, s *Service, name string, inputMB float64, seed int64) CalibrateResponse {
	t.Helper()
	resp, err := s.Calibrate(context.Background(), CalibrateRequest{Name: name, Result: simTrace(t, inputMB, seed)})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCalibrateStoresVersionedProfile(t *testing.T) {
	s := New(Options{Workers: 2})
	r1 := calibrate(t, s, "wc", 512, 1)
	if r1.Profile.Name != "wc" || r1.Profile.Version != 1 || r1.Profile.Hash == "" {
		t.Fatalf("profile = %+v", r1.Profile)
	}
	if r1.Profile.Jobs != 1 || r1.Profile.Samples == 0 {
		t.Errorf("provenance = %+v", r1.Profile)
	}
	for _, cls := range []timeline.Class{timeline.ClassMap, timeline.ClassShuffleSort, timeline.ClassMerge} {
		if fc, ok := r1.Classes[cls]; !ok || fc.Stats.MeanResponse <= 0 {
			t.Errorf("class %s: %+v (present=%v)", cls, r1.Classes[cls], ok)
		}
	}

	// Recalibrating the same name from a different trace bumps the version
	// and changes the content hash.
	r2 := calibrate(t, s, "wc", 2048, 2)
	if r2.Profile.Version != 2 {
		t.Errorf("version = %d", r2.Profile.Version)
	}
	if r2.Profile.Hash == r1.Profile.Hash {
		t.Error("content hash unchanged across different traces")
	}

	// The registry lists the live snapshot only.
	list := s.Profiles()
	if len(list) != 1 || list[0].Version != 2 {
		t.Errorf("profiles = %+v", list)
	}
	if m := s.Metrics(); m.CalibrateRequests != 2 || m.ProfilesActive != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestCalibrateValidation(t *testing.T) {
	s := New(Options{Workers: 2})
	good := simTrace(t, 256, 1)
	cases := []struct {
		name string
		req  CalibrateRequest
	}{
		{"empty name", CalibrateRequest{Result: good}},
		{"name with space", CalibrateRequest{Name: "prod wc", Result: good}},
		{"name too long", CalibrateRequest{Name: strings.Repeat("x", MaxProfileNameLen+1), Result: good}},
		{"negative ttl", CalibrateRequest{Name: "wc", Result: good, TTL: -time.Second}},
		{"empty trace", CalibrateRequest{Name: "wc"}},
		{"bad fit options", CalibrateRequest{Name: "wc", Result: good, Fit: trace.FitOptions{TrimFraction: 0.9}}},
	}
	for _, tc := range cases {
		_, err := s.Calibrate(context.Background(), tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !IsInvalidRequest(err) {
			t.Errorf("%s: error not typed as invalid: %v", tc.name, err)
		}
	}
}

func TestPredictUnknownProfileRejected(t *testing.T) {
	s := New(Options{Workers: 2})
	_, err := s.Predict(context.Background(), PredictRequest{
		Spec: cluster.Default(2), Job: testJob(t, 512, 2), Profile: "nope",
	})
	if err == nil || !IsInvalidRequest(err) {
		t.Fatalf("unknown profile: err = %v", err)
	}
}

// TestCalibratedPredictionDiffers pins the tentpole's point: the trace-seeded
// initialization (§4.2.1, first approach) converges to a different fixed
// point than the Herodotou-style static initialization on the same spec.
func TestCalibratedPredictionDiffers(t *testing.T) {
	s := New(Options{Workers: 2})
	calibrate(t, s, "wc", 512, 1)
	ctx := context.Background()
	base := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2)}

	plain, err := s.Predict(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	withProf := base
	withProf.Profile = "wc"
	cal, err := s.Predict(ctx, withProf)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Prediction.ResponseTime == plain.Prediction.ResponseTime {
		t.Error("calibrated prediction identical to static-initialized one")
	}
	if cal.Profile != "wc" || cal.ProfileVersion != 1 {
		t.Errorf("profile metadata = %q v%d", cal.Profile, cal.ProfileVersion)
	}
	if plain.Profile != "" || plain.ProfileVersion != 0 {
		t.Errorf("profile-less metadata = %q v%d", plain.Profile, plain.ProfileVersion)
	}
}

// TestRecalibrationInvalidatesCache is the tentpole's regression test:
// calibrating a new profile under a used name makes every cached prediction
// that referenced it unreachable — the next predict recomputes against the
// new content instead of serving the stale entry.
func TestRecalibrationInvalidatesCache(t *testing.T) {
	s := New(Options{Workers: 2})
	calibrate(t, s, "wc", 512, 1)
	ctx := context.Background()
	req := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2), Profile: "wc"}

	first, err := s.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first profile-backed predict served from cache")
	}
	warm, err := s.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat predict not cached")
	}

	// Same name, different trace: the content hash changes, so the cached
	// entry under the old hash can never be served for this name again.
	calibrate(t, s, "wc", 4096, 9)
	after, err := s.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Error("predict after recalibration served a stale cache entry")
	}
	if after.ProfileVersion != 2 {
		t.Errorf("profile version = %d", after.ProfileVersion)
	}
	if after.Prediction.ResponseTime == first.Prediction.ResponseTime {
		t.Error("recalibration from a 8x larger trace left the prediction unchanged")
	}

	// Recalibrating from an identical trace reproduces the original content
	// hash, so the original cache entry becomes reachable again — content
	// addressing, not name-version addressing.
	calibrate(t, s, "wc", 512, 1)
	back, err := s.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Cached {
		t.Error("identical recalibration did not restore cache reachability")
	}
	if back.ProfileVersion != 3 {
		t.Errorf("metadata must reflect the live registry version, got %d", back.ProfileVersion)
	}
}

func TestProfileTTLExpiry(t *testing.T) {
	s := New(Options{Workers: 2, ProfileTTL: time.Minute})
	now := time.Unix(1000, 0)
	s.profiles.now = func() time.Time { return now }

	calibrate(t, s, "wc", 512, 1)
	req := PredictRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2), Profile: "wc"}
	if _, err := s.Predict(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	now = now.Add(2 * time.Minute)
	_, err := s.Predict(context.Background(), req)
	if err == nil || !IsInvalidRequest(err) || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("expired profile: err = %v", err)
	}
	if len(s.Profiles()) != 0 {
		t.Error("expired profile still listed")
	}
	if m := s.Metrics(); m.ProfilesActive != 0 {
		t.Errorf("ProfilesActive = %d", m.ProfilesActive)
	}

	// Recalibration revives the name (and purges the dead entry).
	calibrate(t, s, "wc", 512, 1)
	if _, err := s.Predict(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

func TestProfileRegistryBound(t *testing.T) {
	s := New(Options{Workers: 2, MaxProfiles: 2})
	res := simTrace(t, 256, 1)
	for i := 0; i < 2; i++ {
		if _, err := s.Calibrate(context.Background(), CalibrateRequest{Name: fmt.Sprintf("p%d", i), Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Calibrate(context.Background(), CalibrateRequest{Name: "p2", Result: res}); err == nil {
		t.Fatal("registry accepted a profile beyond MaxProfiles")
	}
	// Replacing an existing name is always allowed at capacity.
	if _, err := s.Calibrate(context.Background(), CalibrateRequest{Name: "p0", Result: res}); err != nil {
		t.Fatalf("recalibration at capacity rejected: %v", err)
	}
}

// TestPlanUsesProfileSnapshot: a plan resolves its profile once; its
// candidates ride one snapshot and the response stays internally consistent.
func TestPlanWithProfile(t *testing.T) {
	s := New(Options{Workers: 4})
	calibrate(t, s, "wc", 512, 1)
	ctx := context.Background()
	plan, err := s.Plan(ctx, PlanRequest{
		Spec: cluster.Default(4), Job: testJob(t, 1024, 1),
		Nodes: []int{2, 4, 6}, Profile: "wc",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Candidates) != 3 || plan.Best == nil {
		t.Fatalf("plan = %+v", plan)
	}

	// The same grid without the profile must differ: profile seeding reaches
	// every candidate, not just the template.
	plain, err := s.Plan(ctx, PlanRequest{
		Spec: cluster.Default(4), Job: testJob(t, 1024, 1), Nodes: []int{2, 4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range plan.Candidates {
		if plan.Candidates[i].ResponseTime != plain.Candidates[i].ResponseTime {
			diff = true
		}
	}
	if !diff {
		t.Error("profile-backed plan identical to static plan on every candidate")
	}

	// Simulator-backed plans reject profile references instead of silently
	// ignoring them.
	_, err = s.Plan(ctx, PlanRequest{
		Spec: cluster.Default(2), Job: testJob(t, 256, 1), UseSimulator: true, Reps: 1, Profile: "wc",
	})
	if err == nil || !IsInvalidRequest(err) {
		t.Errorf("simulator plan with profile: err = %v", err)
	}
}

// TestCompareWithProfile: the model side of a comparison is seeded by the
// profile while the simulated side stays put, and the cache distinguishes
// profile-backed comparisons from plain ones.
func TestCompareWithProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed comparison in -short mode")
	}
	s := New(Options{Workers: 2})
	calibrate(t, s, "wc", 512, 1)
	ctx := context.Background()
	base := CompareRequest{Spec: cluster.Default(2), Job: testJob(t, 512, 2), Seed: 1, Reps: 1}

	plain, err := s.Compare(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	withProf := base
	withProf.Profile = "wc"
	cal, err := s.Compare(ctx, withProf)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Cached {
		t.Error("profile-backed compare aliased the plain compare's cache entry")
	}
	if cal.Simulated != plain.Simulated {
		t.Error("profile changed the simulated side")
	}
	if cal.ForkJoin == plain.ForkJoin {
		t.Error("profile left the model side unchanged")
	}
	if cal.Profile != "wc" || cal.ProfileVersion != 1 {
		t.Errorf("profile metadata = %q v%d", cal.Profile, cal.ProfileVersion)
	}
}

// TestCalibrateWhilePredictingRace hammers the registry from both sides
// under the race detector: predictions referencing a profile while
// calibrations swap it. Every response must carry a version that was
// actually stored and a positive response time.
func TestCalibrateWhilePredictingRace(t *testing.T) {
	s := New(Options{Workers: 4})
	traces := []mrsim.Result{simTrace(t, 256, 1), simTrace(t, 1024, 2)}
	if _, err := s.Calibrate(context.Background(), CalibrateRequest{Name: "hot", Result: traces[0]}); err != nil {
		t.Fatal(err)
	}

	const (
		predictors   = 4
		calibrations = 20
		predictions  = 30
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, predictors*predictions+calibrations)

	var maxVersion int64 = 1
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calibrations; i++ {
			resp, err := s.Calibrate(ctx, CalibrateRequest{Name: "hot", Result: traces[i%2]})
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			if resp.Profile.Version > maxVersion {
				maxVersion = resp.Profile.Version
			}
			mu.Unlock()
		}
	}()
	for p := 0; p < predictors; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < predictions; i++ {
				resp, err := s.Predict(ctx, PredictRequest{
					Spec: cluster.Default(2), Job: testJob(t, float64(256+64*(i%3)), 1+p%2), Profile: "hot",
				})
				if err != nil {
					errs <- fmt.Errorf("predictor %d: %w", p, err)
					return
				}
				if resp.Prediction.ResponseTime <= 0 || resp.ProfileVersion < 1 {
					errs <- fmt.Errorf("predictor %d: rt=%v version=%d", p, resp.Prediction.ResponseTime, resp.ProfileVersion)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := s.Profiles(); len(got) != 1 || got[0].Version != maxVersion {
		t.Errorf("final registry = %+v, want single profile at version %d", got, maxVersion)
	}
}
