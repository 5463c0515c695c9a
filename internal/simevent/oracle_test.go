package simevent

import (
	"math"
	"math/rand"
	"testing"
)

// Closed-form checks of the simulator's processor-sharing oracle. An idle
// task's completion is scheduled at now + work/1, so it takes exactly its
// demand, and a task alone never runs faster than real time — both hold
// with no tolerance. k equal tasks on a capacity-1 center all complete in
// one event, but at work ÷ fl(1/k), not at fl(k·work): the two roundings
// (of 1/k and of the quotient) put it within 2 ulps of the closed form, and
// for demands like 0.3 it lands one ulp away. BusyTime, the served work,
// adds two more roundings (rate × elapsed, then × k).

// oracleWorks are demands with no exact binary form alongside dyadic ones.
var oracleWorks = []float64{0.1, 0.3, 1, 2.5, 7.3, 12345.678, 1e-3, 1.0 / 3}

// An idle task takes exactly its demand at any capacity of one or more,
// submitted at time 0 or later.
func TestOracleIdleTaskTakesItsDemand(t *testing.T) {
	for _, capacity := range []float64{1, 1.5, 2, 4, 16} {
		for _, start := range []float64{0, 3.7} {
			for _, work := range oracleWorks {
				eng := NewEngine()
				r := NewPSResource(eng, "x", capacity)
				done := -1.0
				eng.At(start, func() { r.Submit(work, func() { done = eng.Now() }) })
				if _, err := eng.Run(100); err != nil {
					t.Fatal(err)
				}
				if done != start+work {
					t.Errorf("capacity %v, work %v at %v: done at %v, want %v", capacity, work, start, done, start+work)
				}
			}
		}
	}
}

// k equal tasks on a capacity-1 center finish together, in one event, at
// k × demand to within the two roundings of the rate and the quotient, and
// BusyTime is the submitted work to within its four.
func TestOracleEqualTasksFinishTogether(t *testing.T) {
	for k := 1; k <= 12; k++ {
		for _, work := range oracleWorks {
			eng := NewEngine()
			r := NewPSResource(eng, "x", 1)
			finish := make([]float64, 0, k)
			for i := 0; i < k; i++ {
				r.Submit(work, func() { finish = append(finish, eng.Now()) })
			}
			events, err := eng.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			if events != 1 || len(finish) != k {
				t.Fatalf("k=%d work %v: %d completions over %d events, want %d in 1", k, work, len(finish), events, k)
			}
			want := float64(k) * work
			for _, f := range finish {
				if ulps(f, want) > 2 {
					t.Errorf("k=%d work %v: finished at %v, want %v within 2 ulps", k, work, f, want)
				}
			}
			if got := r.BusyTime(); ulps(got, want) > 4 {
				t.Errorf("k=%d work %v: BusyTime %v, want %v within 4 ulps", k, work, got, want)
			}
		}
	}
}

// A single task never runs faster than real time, however much capacity
// the center has, and it runs at real time while it is alone: a second
// task arriving halfway leaves the first's remaining half unchanged on a
// center with room for both.
func TestOracleNeverFasterThanRealTime(t *testing.T) {
	for _, capacity := range []float64{2, 3, 8, 1e6} {
		for _, work := range oracleWorks {
			eng := NewEngine()
			r := NewPSResource(eng, "x", capacity)
			var first, second float64
			r.Submit(work, func() { first = eng.Now() })
			eng.At(work/2, func() { r.Submit(work, func() { second = eng.Now() }) })
			if _, err := eng.Run(100); err != nil {
				t.Fatal(err)
			}
			if first < work {
				t.Errorf("capacity %v: work %v finished at %v, faster than real time", capacity, work, first)
			}
			if arrive := work / 2; second < arrive+work {
				t.Errorf("capacity %v: work %v arrived at %v and finished at %v, faster than real time", capacity, work, arrive, second)
			}
		}
	}
}

// TestOracleRandomSchedule drives one resource with random arrivals and
// crashes (Clear) and checks the oracle's bookkeeping: every task not alive
// at a crash completes exactly once and never before it could have (its
// arrival plus its work), a crashed task never completes, the clock never
// goes back, and BusyTime is the work of the completed tasks. Completion
// fires once a task's remaining work is within 1e-9, so BusyTime may fall
// short of the completed work by at most that per completion; crashed work
// counts as far as it was served, which lies between 0 and the task's work.
func TestOracleRandomSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		eng := NewEngine()
		capacity := float64(1 + rng.Intn(4))
		if rng.Intn(3) == 0 {
			capacity = 0.5 + 3*rng.Float64()
		}
		r := NewPSResource(eng, "x", capacity)
		type task struct {
			arrive, work, done float64
			completions        int
			crashed            bool
		}
		n := 1 + rng.Intn(40)
		tasks := make([]task, n)
		alive := map[int]bool{}
		last := 0.0
		clock := func() {
			if now := eng.Now(); now < last {
				t.Fatalf("trial %d: clock went back from %v to %v", trial, last, now)
			}
			last = eng.Now()
		}
		for i := range tasks {
			i := i
			tasks[i].arrive = 50 * rng.Float64()
			tasks[i].work = 0.01 + 20*rng.Float64()
			eng.At(tasks[i].arrive, func() {
				clock()
				alive[i] = true
				r.Submit(tasks[i].work, func() {
					clock()
					tasks[i].completions++
					tasks[i].done = eng.Now()
					delete(alive, i)
				})
			})
		}
		crashes := rng.Intn(3)
		for c := 0; c < crashes; c++ {
			eng.At(60*rng.Float64(), func() {
				clock()
				for i := range alive {
					tasks[i].crashed = true
				}
				clear(alive)
				r.Clear()
			})
		}
		if _, err := eng.Run(100000); err != nil {
			t.Fatal(err)
		}
		var completed, crashedWork float64
		completions := 0
		for i, tk := range tasks {
			switch {
			case tk.crashed && tk.completions != 0:
				t.Errorf("trial %d: crashed task %d completed %d times", trial, i, tk.completions)
			case !tk.crashed && tk.completions != 1:
				t.Errorf("trial %d: task %d completed %d times, want once", trial, i, tk.completions)
			case tk.crashed:
				crashedWork += tk.work
			case tk.done < tk.arrive+tk.work-1e-9:
				t.Errorf("trial %d: task %d of work %v arrived at %v and finished at %v, faster than real time",
					trial, i, tk.work, tk.arrive, tk.done)
			default:
				completed += tk.work
				completions++
			}
		}
		busy := r.BusyTime()
		if lo, hi := completed-1e-9*float64(completions), completed+crashedWork; busy < lo*(1-1e-12) || busy > hi*(1+1e-12) {
			t.Errorf("trial %d: BusyTime %v outside [%v, %v] (completed work, plus crashed)", trial, busy, lo, hi)
		}
	}
}

// ulps counts the representable doubles between two positive values.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}
