package simevent

import "testing"

// Cancelled timers must not accumulate in the calendar: the engine sweeps
// dead entries once they exceed half the calendar, so queue growth stays
// bounded by ~2x the live event count no matter how many timers are
// cancelled. PSResource moves its pending completion in place
// (Reschedule), so in the simulator only a node crash (PSResource.Clear)
// cancels; Cancel and compaction stay public engine behaviour.
func TestCancelledTimersCompacted(t *testing.T) {
	eng := NewEngine()
	// One long-lived live event so the calendar is never trivially empty.
	eng.At(1e9, func() {})
	const churn = 100_000
	maxLen := 0
	for i := 0; i < churn; i++ {
		tm := eng.At(1e6+float64(i), func() {})
		tm.Cancel()
		if eng.Len() > maxLen {
			maxLen = eng.Len()
		}
	}
	if maxLen > 2*compactMinLen {
		t.Errorf("calendar grew to %d entries under cancel churn (want <= %d)", maxLen, 2*compactMinLen)
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("pending = %d, want 1", got)
	}
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
}

// Compaction must preserve event ordering and never drop live events.
func TestCompactionPreservesLiveEvents(t *testing.T) {
	eng := NewEngine()
	var order []int
	var timers []Timer
	// Interleave live and to-be-cancelled events.
	for i := 0; i < 500; i++ {
		i := i
		if i%2 == 0 {
			eng.At(float64(i), func() { order = append(order, i) })
		} else {
			timers = append(timers, eng.At(float64(i), func() { t.Error("cancelled event fired") }))
		}
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if _, err := eng.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(order) != 250 {
		t.Fatalf("fired %d live events, want 250", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("events out of order: %d after %d", order[i], order[i-1])
		}
	}
}

func TestEngineReset(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.At(5, func() { fired++ })
	stale := eng.At(7, func() { fired++ })
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || eng.Now() != 7 {
		t.Fatalf("fired=%d now=%v", fired, eng.Now())
	}

	eng.Reset()
	if eng.Now() != 0 || eng.Len() != 0 || eng.Pending() != 0 {
		t.Fatalf("reset engine: now=%v len=%d pending=%d", eng.Now(), eng.Len(), eng.Pending())
	}
	// A stale Timer from before the reset must not cancel a new event that
	// happens to reuse its slot.
	ran := false
	eng.At(1, func() { ran = true })
	stale.Cancel()
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("stale pre-reset Timer cancelled a post-reset event")
	}
	// The engine is fully usable after reset: ordering still holds.
	var order []float64
	eng.Reset()
	eng.At(3, func() { order = append(order, 3) })
	eng.At(1, func() { order = append(order, 1) })
	eng.At(2, func() { order = append(order, 2) })
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order after reset = %v", order)
	}
}

func TestZeroTimerCancelNoop(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
}
