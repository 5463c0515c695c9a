package simevent

import (
	"math/rand"
	"testing"
)

// psRun drives a 40-task capacity-2 resource with random arrivals and
// demands and returns every completion time. With polls > 0 it also reads
// BusyTime at that many random instants of the run.
func psRun(t *testing.T, seed int64, polls int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	r := NewPSResource(eng, "x", 2)
	done := make([]float64, 40)
	for i := range done {
		i := i
		work := 0.01 + 20*rng.Float64()
		eng.At(50*rng.Float64(), func() { r.Submit(work, func() { done[i] = eng.Now() }) })
	}
	for p := 0; p < polls; p++ {
		eng.At(80*rng.Float64(), func() { r.BusyTime() })
	}
	if _, err := eng.Run(100_000); err != nil {
		t.Fatal(err)
	}
	return done
}

// BusyTime is a pure read: polling it mid-run must not move a single
// completion time, not even in its last bit.
func TestPSBusyTimeDoesNotPerturb(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		quiet, polled := psRun(t, seed, 0), psRun(t, seed, 30)
		for i := range quiet {
			if quiet[i] != polled[i] {
				t.Errorf("seed %d: task %d done at %v unpolled, %v polled", seed, i, quiet[i], polled[i])
			}
		}
	}
}

// A warmed resource runs a Submit/complete cycle with no heap allocation:
// the only closure is the caller's, and it is built outside the cycle. The
// two works of 3 finish in one event, so the cycle also orders a popped
// tie.
func TestPSCycleAllocatesNothing(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "x", 2)
	done := func() {}
	cycle := func() {
		r.Submit(1, done)
		r.Submit(2, done)
		r.Submit(3, done)
		r.Submit(3, done)
		if _, err := eng.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // grow the calendar, the arena and the task slices once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Submit/complete cycle allocates %v times, want 0", allocs)
	}
}

// A reset resource on a reset engine runs a new workload exactly as a fresh
// one does, even when the previous run was cut off with work in flight.
func TestPSResetMatchesFresh(t *testing.T) {
	workload := func(eng *Engine, r *PSResource, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		done := make([]float64, 30)
		for i := range done {
			i := i
			work := 0.01 + 20*rng.Float64()
			eng.At(50*rng.Float64(), func() { r.Submit(work, func() { done[i] = eng.Now() }) })
		}
		return done
	}
	for seed := int64(1); seed <= 10; seed++ {
		fresh := NewEngine()
		fr := NewPSResource(fresh, "x", 3)
		want := workload(fresh, fr, seed)
		if _, err := fresh.Run(100_000); err != nil {
			t.Fatal(err)
		}

		eng := NewEngine()
		r := NewPSResource(eng, "x", 1)
		workload(eng, r, seed+100)
		if _, err := eng.Run(25); err == nil {
			t.Fatal("the first run was meant to stop with work in flight")
		}
		r.Clear()
		eng.Reset()
		r.Reset(3)
		got := workload(eng, r, seed)
		if _, err := eng.Run(100_000); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d: task %d done at %v after reset, %v fresh", seed, i, got[i], want[i])
			}
		}
		if r.BusyTime() != fr.BusyTime() {
			t.Errorf("seed %d: busy time %v after reset, %v fresh", seed, r.BusyTime(), fr.BusyTime())
		}
	}
}

// Tasks whose finish marks lie within the completion tolerance of each
// other fire in one event, in submission order, even when the later task's
// mark is the smaller one and leaves the heap first.
func TestPSTieFiresInSubmissionOrder(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "x", 2)
	var order []int
	var at []float64
	r.Submit(1+5e-10, func() { order = append(order, 0); at = append(at, eng.Now()) })
	r.Submit(1, func() { order = append(order, 1); at = append(at, eng.Now()) })
	events, err := eng.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if events != 1 || len(order) != 2 || order[0] != 0 || order[1] != 1 || at[0] != 1 || at[1] != 1 {
		t.Errorf("fired %v at %v over %d events, want [0 1] at 1 in one event", order, at, events)
	}
}

// The virtual clock restarts when the resource empties, by completion or by
// a crash (Clear): a batch submitted to the idle resource afterwards
// finishes at exactly the times a fresh resource gives it, however much
// service the busy period delivered.
func TestPSIdleAfterBusyMatchesFresh(t *testing.T) {
	batch := func(eng *Engine, r *PSResource) []float64 {
		done := make([]float64, 40)
		eng.At(20000, func() {
			for i := range done {
				i := i
				r.Submit(oracleWorks[i%len(oracleWorks)], func() { done[i] = eng.Now() })
			}
		})
		if _, err := eng.Run(1000); err != nil {
			t.Fatal(err)
		}
		return done
	}
	fresh := NewEngine()
	want := batch(fresh, NewPSResource(fresh, "x", 1.5))
	for _, crash := range []bool{false, true} {
		eng := NewEngine()
		r := NewPSResource(eng, "x", 1.5)
		r.Submit(12345.678, func() {})
		r.Submit(9876.5, func() {})
		if crash {
			eng.At(5000, r.Clear)
		}
		got := batch(eng, r)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("crash %v: task %d done at %v, %v on a fresh resource", crash, i, got[i], want[i])
			}
		}
	}
}

// A task submitted at the instant another falls due, in an event that fires
// before the due completion, finds the due task's mark a rounding behind V:
// the completion is still scheduled at that instant, not before it, and the
// due task finishes there.
func TestPSSubmitWhenTaskFallsDue(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "x", 1)
	work, rate := 7.3, 1.0/3 // three tasks at rate 1/3: V passes 7.3 by an ulp when it is due
	due := work / rate
	first := -1.0
	eng.At(due, func() { r.Submit(1, func() {}) })
	r.Submit(work, func() { first = eng.Now() })
	r.Submit(100, func() {})
	r.Submit(100, func() {})
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if first != due {
		t.Errorf("task of work %v done at %v, want %v", work, first, due)
	}
}
