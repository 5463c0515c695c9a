package simevent

import "fmt"

// PSResource is a processor-sharing resource with a fixed capacity measured
// in "work units per second" (e.g. a node CPU with capacity c executes up to
// c seconds of task work per second, evenly shared when more than c tasks are
// active; a single disk has capacity 1).
//
// It models the shared service centers of the paper's queueing network: the
// response time of a task's work inflates when concurrent tasks contend.
// Active tasks live in a value slice kept in submission order, so service
// and completion are deterministic and the per-task bookkeeping allocates
// nothing beyond the slice itself.
type PSResource struct {
	eng      *Engine
	name     string
	capacity float64
	active   []psTask // submission order
	fired    []func() // scratch for complete(), reused across events
	lastUpd  float64
	pending  Timer
	// busyIntegral accumulates utilization*time for reporting.
	busyIntegral float64
}

type psTask struct {
	remaining float64
	done      func()
}

// NewPSResource creates a processor-sharing resource with the given capacity
// (> 0) attached to the engine.
func NewPSResource(eng *Engine, name string, capacity float64) *PSResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simevent: PS resource %q needs positive capacity", name))
	}
	return &PSResource{eng: eng, name: name, capacity: capacity}
}

// Submit enqueues work seconds of demand; done fires when the work
// completes under sharing. Zero or negative work completes immediately at the
// current time (via an immediate event, preserving event ordering).
func (r *PSResource) Submit(work float64, done func()) {
	if work <= 0 {
		r.eng.After(0, done)
		return
	}
	r.advance()
	r.active = append(r.active, psTask{remaining: work, done: done})
	r.reschedule()
}

// Clear drops every active task without firing its completion callback and
// cancels the pending completion event — node-crash semantics: work in
// progress is lost and nothing downstream of it runs. Service delivered so
// far stays in the utilization integral (BusyTime); the resource itself
// remains usable (a repaired node restarts empty).
func (r *PSResource) Clear() {
	r.advance()
	for i := range r.active {
		r.active[i].done = nil
	}
	r.active = r.active[:0]
	r.pending.Cancel()
	r.pending = Timer{}
}

// BusyTime returns the accumulated utilization integral (work-seconds
// completed); BusyTime/elapsed gives average utilization in work units.
func (r *PSResource) BusyTime() float64 {
	r.advance()
	r.reschedule()
	return r.busyIntegral
}

// rate returns the per-task service rate under processor sharing.
func (r *PSResource) rate() float64 {
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

// advance applies elapsed service since lastUpd to all active tasks.
func (r *PSResource) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpd
	r.lastUpd = now
	if dt <= 0 || len(r.active) == 0 {
		return
	}
	rt := r.rate()
	served := rt * dt
	r.busyIntegral += served * float64(len(r.active))
	for i := range r.active {
		r.active[i].remaining -= served
		if r.active[i].remaining < 0 {
			r.active[i].remaining = 0
		}
	}
}

// reschedule cancels the pending completion event and schedules the next one.
func (r *PSResource) reschedule() {
	r.pending.Cancel()
	if len(r.active) == 0 {
		return
	}
	rt := r.rate()
	minRem := -1.0
	for i := range r.active {
		if minRem < 0 || r.active[i].remaining < minRem {
			minRem = r.active[i].remaining
		}
	}
	eta := minRem / rt
	r.pending = r.eng.After(eta, r.complete)
}

// complete fires the callbacks of every task that has (numerically) finished,
// in submission order.
func (r *PSResource) complete() {
	r.advance()
	const eps = 1e-9
	r.fired = r.fired[:0]
	w := 0
	for i := range r.active {
		if r.active[i].remaining <= eps {
			r.fired = append(r.fired, r.active[i].done)
			continue
		}
		r.active[w] = r.active[i]
		w++
	}
	for i := w; i < len(r.active); i++ {
		r.active[i].done = nil // release completed closures
	}
	r.active = r.active[:w]
	r.reschedule()
	for _, fn := range r.fired {
		fn()
	}
}
