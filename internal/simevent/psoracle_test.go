package simevent

// This file keeps the processor-sharing resource the virtual clock
// replaced, verbatim but renamed, as the oracle of PSResource: every active
// task carries its remaining work, and each event subtracts the service
// delivered since the last one from every task, clamps at 0 and rescans for
// the least. FuzzPSResourceMatchesOracle and BenchmarkPSResource drive the
// two side by side.

import (
	"fmt"
	"math"
)

// oraclePS is a processor-sharing resource with a fixed capacity measured
// in "work units per second" (e.g. a node CPU with capacity c executes up to
// c seconds of task work per second, evenly shared when more than c tasks are
// active; a single disk has capacity 1).
//
// It models the shared service centers of the paper's queueing network: the
// response time of a task's work inflates when concurrent tasks contend.
// Active tasks live in a value slice kept in submission order, so service
// and completion are deterministic and the per-task bookkeeping allocates
// nothing beyond the slice itself.
type oraclePS struct {
	eng      *Engine
	name     string
	capacity float64
	active   []oracleTask // submission order
	fired    []func()     // scratch for complete(), reused across events
	lastUpd  float64
	pending  Timer
	onDone   func() // r.complete, bound once: a method value allocates
	// busyIntegral accumulates utilization*time for reporting.
	busyIntegral float64
}

type oracleTask struct {
	remaining float64
	done      func()
}

// newOraclePS creates a processor-sharing resource with the given capacity
// (> 0) attached to the engine.
func newOraclePS(eng *Engine, name string, capacity float64) *oraclePS {
	if capacity <= 0 {
		panic(fmt.Sprintf("simevent: PS resource %q needs positive capacity", name))
	}
	r := &oraclePS{eng: eng, name: name, capacity: capacity}
	r.onDone = r.complete
	return r
}

// Reset readies the resource for a new run on its engine, after
// Engine.Reset: no active task, no pending completion, the clock and the
// utilization integral at 0, and the given capacity (> 0). The task slice
// keeps its capacity, so a pooled resource re-grows nothing.
func (r *oraclePS) Reset(capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("simevent: PS resource %q needs positive capacity", r.name))
	}
	clear(r.active)
	r.active = r.active[:0]
	clear(r.fired)
	r.fired = r.fired[:0]
	r.capacity = capacity
	r.lastUpd = 0
	r.pending = Timer{}
	r.busyIntegral = 0
}

// Submit enqueues work seconds of demand; done fires when the work
// completes under sharing. Zero or negative work completes immediately at the
// current time (via an immediate event, preserving event ordering).
//
// One pass over the active tasks applies the service delivered since the
// last event and finds the least remaining work; the pending completion is
// then re-keyed in place for the new task count.
func (r *oraclePS) Submit(work float64, done func()) {
	if work <= 0 {
		r.eng.After(0, done)
		return
	}
	served := r.advanceClock()
	minRem := work
	for i := range r.active {
		rem := r.active[i].remaining - served
		if rem < 0 {
			rem = 0
		}
		r.active[i].remaining = rem
		if rem < minRem {
			minRem = rem
		}
	}
	r.active = append(r.active, oracleTask{remaining: work, done: done})
	r.schedule(minRem)
}

// Clear drops every active task without firing its completion callback and
// cancels the pending completion event — node-crash semantics: work in
// progress is lost and nothing downstream of it runs. Service delivered so
// far stays in the utilization integral (BusyTime); the resource itself
// remains usable (a repaired node restarts empty).
func (r *oraclePS) Clear() {
	r.advanceClock()
	clear(r.active)
	r.active = r.active[:0]
	r.pending.Cancel()
	r.pending = Timer{}
}

// BusyTime returns the accumulated utilization integral (work-seconds
// completed); BusyTime/elapsed gives average utilization in work units. It
// only reads: the service since the last event is added to the result, not
// to the resource, so polling it leaves the run unchanged.
func (r *oraclePS) BusyTime() float64 {
	return r.busyIntegral + r.served(r.eng.Now())*float64(len(r.active))
}

// rate returns the per-task service rate under processor sharing.
func (r *oraclePS) rate() float64 {
	n := len(r.active)
	if n == 0 {
		return 0
	}
	rate := r.capacity / float64(n)
	if rate > 1 {
		rate = 1 // a single task cannot run faster than real time
	}
	return rate
}

// served returns the work each active task has received between the last
// update and now: rate × elapsed, or 0 when no time passed or nothing is
// active. Subtracting or adding that 0 leaves every value bit for bit as it
// was, so callers apply it unconditionally.
func (r *oraclePS) served(now float64) float64 {
	dt := now - r.lastUpd
	if dt <= 0 || len(r.active) == 0 {
		return 0
	}
	return r.rate() * dt
}

// advanceClock moves the last update to now, credits the service delivered
// since the previous one to the utilization integral, and returns the work
// each active task received, which the caller subtracts from every task.
func (r *oraclePS) advanceClock() float64 {
	now := r.eng.Now()
	served := r.served(now)
	r.lastUpd = now
	r.busyIntegral += served * float64(len(r.active))
	return served
}

// schedule moves the pending completion to when the task with minRem work
// left finishes at the current task count's rate. Nothing is scheduled for
// an idle resource.
func (r *oraclePS) schedule(minRem float64) {
	if len(r.active) == 0 {
		return
	}
	r.pending = r.eng.Reschedule(r.pending, r.eng.Now()+minRem/r.rate(), r.onDone)
}

// complete fires the callbacks of every task that has (numerically) finished,
// in submission order. One pass applies the elapsed service, drops the
// finished tasks and finds the least remaining work of the rest.
func (r *oraclePS) complete() {
	const eps = 1e-9
	served := r.advanceClock()
	r.fired = r.fired[:0]
	minRem := math.Inf(1)
	w := 0
	for i := range r.active {
		t := r.active[i]
		rem := t.remaining - served
		if rem < 0 {
			rem = 0
		}
		if rem <= eps {
			r.fired = append(r.fired, t.done)
			continue
		}
		if rem < minRem {
			minRem = rem
		}
		r.active[w] = oracleTask{remaining: rem, done: t.done}
		w++
	}
	clear(r.active[w:]) // release completed closures
	r.active = r.active[:w]
	r.schedule(minRem)
	for _, fn := range r.fired {
		fn()
	}
}
