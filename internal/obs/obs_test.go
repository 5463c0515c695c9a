package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// StartSpan starts a stage timer; the returned stop function records the
// elapsed duration into the trace and returns it.
func (t *Trace) StartSpan(stage Stage) func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		t.Add(stage, d)
		return d
	}
}

func TestNewRequestID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if !ValidRequestID(id) {
			t.Fatalf("generated id %q fails ValidRequestID", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q in 100 draws", id)
		}
		seen[id] = true
	}
}

func TestValidRequestID(t *testing.T) {
	valid := []string{"a", "0123456789abcdef", "req-42_x.y", strings.Repeat("z", 64)}
	for _, id := range valid {
		if !ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = false, want true", id)
		}
	}
	invalid := []string{
		"",
		strings.Repeat("z", 65),
		"has space",
		"newline\ninjection",
		"quote\"break",
		"semi;colon",
		"unicode-é",
		"tab\tsep",
	}
	for _, id := range invalid {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true, want false", id)
		}
	}
}

func TestStageString(t *testing.T) {
	want := []string{"admission", "queue_wait", "cache_lookup", "profile_resolve", "model_solve", "simulate", "plan_search"}
	if len(want) != int(NumStages) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d).String() = %q, want %q", i, got, w)
		}
	}
	if got := Stage(-1).String(); got != "stage(-1)" {
		t.Errorf("out-of-range stage name = %q", got)
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTrace("abc123")
	if tr.RequestID() != "abc123" {
		t.Fatalf("RequestID = %q", tr.RequestID())
	}

	tr.Add(StageModelSolve, 50*time.Millisecond)
	tr.Add(StageModelSolve, 30*time.Millisecond)
	stop := tr.StartSpan(StageCacheLookup)
	if d := stop(); d < 0 {
		t.Fatalf("span duration negative: %v", d)
	}
	tr.AddCounter(CounterPredicts, 2)
	tr.AddCounter(CounterPredicts, 1)

	snap := tr.Snapshot()
	ms, ok := snap.Stages["model_solve"]
	if !ok {
		t.Fatal("model_solve missing from snapshot")
	}
	if ms.Spans != 2 || ms.Seconds < 0.079 || ms.Seconds > 0.081 {
		t.Errorf("model_solve = %+v, want 2 spans / ~0.08s", ms)
	}
	if cl, ok := snap.Stages["cache_lookup"]; !ok || cl.Spans != 1 {
		t.Errorf("cache_lookup = %+v, want 1 span", cl)
	}
	if _, ok := snap.Stages["simulate"]; ok {
		t.Error("untouched stage simulate should be omitted from snapshot")
	}
	if snap.Counts["predicts"] != 3 {
		t.Errorf("counts[predicts] = %d, want 3", snap.Counts["predicts"])
	}
	if tr.Counter(CounterPredicts) != 3 {
		t.Errorf("Counter(CounterPredicts) = %d, want 3", tr.Counter(CounterPredicts))
	}
	if _, ok := snap.Counts["cacheHits"]; ok {
		t.Error("untouched counter cacheHits should be omitted from snapshot")
	}
}

// TestTraceNilSafety: every Trace method must tolerate a nil receiver so
// un-instrumented call paths need no guards.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.RequestID() != "" {
		t.Error("nil RequestID should be empty")
	}
	tr.Add(StageModelSolve, time.Second)
	tr.StartSpan(StageSimulate)()
	tr.AddCounter(CounterPredicts, 1)
	if tr.Counter(CounterPredicts) != 0 {
		t.Error("nil Counter should be 0")
	}
	if tr.Snapshot() != nil {
		t.Error("nil Snapshot should be nil")
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("ctx-id")
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

// TestTraceConcurrent records spans and counters from many goroutines (run
// under -race): plan fan-out does exactly this.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("conc")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Add(StageModelSolve, time.Microsecond)
				tr.AddCounter(CounterPredicts, 1)
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if got := snap.Stages["model_solve"].Spans; got != workers*per {
		t.Errorf("spans = %d, want %d", got, workers*per)
	}
	if got := snap.Counts["predicts"]; got != workers*per {
		t.Errorf("predicts = %d, want %d", got, workers*per)
	}
}
