package simevent

import (
	"context"
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Run is RunContext without cancellation.
func (e *Engine) Run(maxEvents int) (int, error) {
	return e.RunContext(context.Background(), maxEvents)
}

// Pending returns the number of live (non-cancelled) scheduled events.
func (e *Engine) Pending() int { return len(e.cal) - e.dead }

func TestEngineOrdersEvents(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.At(3, func() { order = append(order, 3) })
	eng.At(1, func() { order = append(order, 1) })
	eng.At(2, func() { order = append(order, 2) })
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if eng.Now() != 3 {
		t.Errorf("clock = %v", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		eng.At(1, func() { order = append(order, i) })
	}
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []float64
	eng.At(1, func() {
		hits = append(hits, eng.Now())
		eng.After(2, func() { hits = append(hits, eng.Now()) })
	})
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v", hits)
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	tm := eng.At(1, func() { fired = true })
	tm.Cancel()
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancel after firing is a no-op.
	tm2 := eng.At(2, func() {})
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	tm2.Cancel()
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(5, func() {})
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	eng.At(1, func() {})
}

func TestEngineEventBudget(t *testing.T) {
	eng := NewEngine()
	var rearm func()
	rearm = func() { eng.After(1, rearm) }
	eng.After(1, rearm)
	if _, err := eng.Run(10); err == nil {
		t.Error("expected budget error")
	}
}

func TestPSSingleTaskRunsAtFullRate(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "cpu", 4)
	var done float64 = -1
	r.Submit(10, func() { done = eng.Now() })
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !almostEq(done, 10, 1e-9) {
		t.Errorf("single task finished at %v, want 10", done)
	}
}

func TestPSTwoTasksShareSingleServer(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "disk", 1)
	var d1, d2 float64 = -1, -1
	r.Submit(10, func() { d1 = eng.Now() })
	r.Submit(10, func() { d2 = eng.Now() })
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Both share rate 1/2 -> both finish at 20.
	if !almostEq(d1, 20, 1e-6) || !almostEq(d2, 20, 1e-6) {
		t.Errorf("completions = %v, %v; want 20, 20", d1, d2)
	}
}

func TestPSTwoTasksUnderCapacityNoSlowdown(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "cpu", 2)
	var d1, d2 float64 = -1, -1
	r.Submit(10, func() { d1 = eng.Now() })
	r.Submit(5, func() { d2 = eng.Now() })
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !almostEq(d1, 10, 1e-6) || !almostEq(d2, 5, 1e-6) {
		t.Errorf("completions = %v, %v; want 10, 5", d1, d2)
	}
}

func TestPSDynamicRateChange(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "disk", 1)
	var d1, d2 float64 = -1, -1
	r.Submit(10, func() { d1 = eng.Now() })
	// Second task arrives at t=5: first has 5 remaining, now shared.
	eng.At(5, func() { r.Submit(10, func() { d2 = eng.Now() }) })
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	// t=5..15: both at rate 1/2; first finishes its remaining 5 at t=15.
	if !almostEq(d1, 15, 1e-6) {
		t.Errorf("d1 = %v, want 15", d1)
	}
	// Second then has 5 remaining alone: finishes at 20.
	if !almostEq(d2, 20, 1e-6) {
		t.Errorf("d2 = %v, want 20", d2)
	}
}

func TestPSZeroWorkCompletesImmediately(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "cpu", 1)
	done := false
	r.Submit(0, func() { done = true })
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("zero work never completed")
	}
	if eng.Now() != 0 {
		t.Errorf("clock advanced to %v", eng.Now())
	}
}

func TestPSBusyTime(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "cpu", 2)
	r.Submit(10, func() {})
	r.Submit(10, func() {})
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := r.BusyTime(); !almostEq(got, 20, 1e-6) {
		t.Errorf("busy time = %v, want 20 work-seconds", got)
	}
}

func TestPSInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPSResource(NewEngine(), "x", 0)
}

// Conservation property: with capacity c and n equal tasks submitted
// together, each finishes at work*max(1, n/c).
func TestPSConservationProperty(t *testing.T) {
	for _, tc := range []struct {
		capacity float64
		n        int
		work     float64
	}{
		{1, 1, 7}, {1, 4, 3}, {2, 4, 5}, {4, 3, 9}, {8, 16, 2},
	} {
		eng := NewEngine()
		r := NewPSResource(eng, "x", tc.capacity)
		finish := make([]float64, tc.n)
		for i := 0; i < tc.n; i++ {
			i := i
			r.Submit(tc.work, func() { finish[i] = eng.Now() })
		}
		if _, err := eng.Run(100000); err != nil {
			t.Fatal(err)
		}
		slow := float64(tc.n) / tc.capacity
		if slow < 1 {
			slow = 1
		}
		want := tc.work * slow
		for i, f := range finish {
			if !almostEq(f, want, 1e-6) {
				t.Errorf("cap=%v n=%d: task %d finished at %v, want %v",
					tc.capacity, tc.n, i, f, want)
			}
		}
	}
}
