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
// the only closure is the caller's, and it is built outside the cycle.
func TestPSCycleAllocatesNothing(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "x", 2)
	done := func() {}
	cycle := func() {
		r.Submit(1, done)
		r.Submit(2, done)
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
