package simevent

import (
	"cmp"
	"fmt"
	"slices"
)

// PSResource is a processor-sharing resource with a fixed capacity measured
// in "work units per second" (e.g. a node CPU with capacity c executes up to
// c seconds of task work per second, evenly shared when more than c tasks are
// active; a single disk has capacity 1).
//
// It models the shared service centers of the paper's queueing network: the
// response time of a task's work inflates when concurrent tasks contend.
//
// Every active task receives service at the same rate, so the resource
// keeps one virtual clock V instead of a remaining amount per task: V is
// the service each active task has received since the resource last went
// empty. A task submitted with work w gets the finish mark F = V + w, and
// its remaining work at any moment is F − V. The marks live in a binary
// min-heap, so an event advances V once and touches only the heap's top:
// O(log n) per event for n active tasks, where rescanning every task would
// cost O(n). A completion event pops every mark within 1e-9 of V and fires
// those tasks in submission order. V restarts at 0 whenever the resource
// empties (and on Clear and Reset), so F − V loses at most a few ulps of one
// busy period's service. The per-task bookkeeping allocates nothing beyond
// the heap itself.
type PSResource struct {
	eng      *Engine
	name     string
	capacity float64
	marks    []finishMark // binary min-heap by finish
	fired    []finishMark // scratch for complete(), reused across events
	virtual  float64      // V: service per active task since the resource went empty
	seq      uint64       // next submission sequence number
	lastUpd  float64
	pending  Timer
	onDone   func() // r.complete, bound once: a method value allocates
	// busyIntegral accumulates utilization*time for reporting.
	busyIntegral float64
}

// finishMark is one active task: the virtual time at which its work is
// done, its submission sequence number and its completion callback.
type finishMark struct {
	finish float64
	seq    uint64
	done   func()
}

// completionEps is the remaining work at or below which a task counts as
// finished: the completion event's own time is rounded, so a task can
// reach it a hair short of its mark.
const completionEps = 1e-9

// NewPSResource creates a processor-sharing resource with the given capacity
// (> 0) attached to the engine.
func NewPSResource(eng *Engine, name string, capacity float64) *PSResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simevent: PS resource %q needs positive capacity", name))
	}
	r := &PSResource{eng: eng, name: name, capacity: capacity}
	r.onDone = r.complete
	return r
}

// Reset readies the resource for a new run on its engine, after
// Engine.Reset: no active task, no pending completion, the clocks and the
// utilization integral at 0, and the given capacity (> 0). The heap keeps
// its capacity, so a pooled resource re-grows nothing.
func (r *PSResource) Reset(capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("simevent: PS resource %q needs positive capacity", r.name))
	}
	clear(r.marks)
	r.marks = r.marks[:0]
	clear(r.fired)
	r.fired = r.fired[:0]
	r.capacity = capacity
	r.virtual = 0
	r.seq = 0
	r.lastUpd = 0
	r.pending = Timer{}
	r.busyIntegral = 0
}

// Submit enqueues work seconds of demand; done fires when the work
// completes under sharing. Zero or negative work completes immediately at the
// current time (via an immediate event, preserving event ordering).
//
// The virtual clock takes the service delivered since the last event, the
// task's finish mark goes on the heap, and the pending completion is
// re-keyed in place for the new task count.
func (r *PSResource) Submit(work float64, done func()) {
	if work <= 0 {
		r.eng.After(0, done)
		return
	}
	r.advanceClock()
	r.push(finishMark{finish: r.virtual + work, seq: r.seq, done: done})
	r.seq++
	r.schedule()
}

// Clear drops every active task without firing its completion callback and
// cancels the pending completion event — node-crash semantics: work in
// progress is lost and nothing downstream of it runs. Service delivered so
// far stays in the utilization integral (BusyTime); the resource itself
// remains usable (a repaired node restarts empty).
func (r *PSResource) Clear() {
	r.advanceClock()
	clear(r.marks)
	r.marks = r.marks[:0]
	r.virtual = 0
	r.pending.Cancel()
	r.pending = Timer{}
}

// BusyTime returns the accumulated utilization integral (work-seconds
// completed); BusyTime/elapsed gives average utilization in work units. It
// only reads: the service since the last event is added to the result, not
// to the resource, so polling it leaves the run unchanged.
func (r *PSResource) BusyTime() float64 {
	return r.busyIntegral + r.served(r.eng.Now())*float64(len(r.marks))
}

// rate returns the per-task service rate under processor sharing.
func (r *PSResource) rate() float64 {
	n := len(r.marks)
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
// active. Adding that 0 leaves every value bit for bit as it was, so
// callers apply it unconditionally.
func (r *PSResource) served(now float64) float64 {
	dt := now - r.lastUpd
	if dt <= 0 || len(r.marks) == 0 {
		return 0
	}
	return r.rate() * dt
}

// advanceClock moves the last update to now and credits the service
// delivered since the previous one to the virtual clock and to the
// utilization integral.
func (r *PSResource) advanceClock() {
	now := r.eng.Now()
	served := r.served(now)
	r.lastUpd = now
	r.busyIntegral += served * float64(len(r.marks))
	r.virtual += served
}

// schedule moves the pending completion to when the earliest finish mark
// is reached at the current task count's rate. Nothing is scheduled for an
// idle resource. A mark already at or behind V (a task due in an event not
// yet popped at this time) is due now.
func (r *PSResource) schedule() {
	if len(r.marks) == 0 {
		return
	}
	left := r.marks[0].finish - r.virtual
	if left < 0 {
		left = 0
	}
	r.pending = r.eng.Reschedule(r.pending, r.eng.Now()+left/r.rate(), r.onDone)
}

// complete pops every finish mark within completionEps of the virtual
// clock and fires those tasks' callbacks in submission order, after the
// pending completion has been re-keyed for the tasks that remain.
func (r *PSResource) complete() {
	r.advanceClock()
	r.fired = r.fired[:0]
	for len(r.marks) > 0 && r.marks[0].finish-r.virtual <= completionEps {
		r.fired = append(r.fired, r.pop())
	}
	if len(r.marks) == 0 {
		r.virtual = 0
	}
	r.schedule()
	slices.SortFunc(r.fired, func(a, b finishMark) int { return cmp.Compare(a.seq, b.seq) })
	for i := range r.fired {
		r.fired[i].done()
	}
	clear(r.fired) // release completed closures
}

// less orders heap positions i and j by finish mark. Equal marks are popped
// in the same event and fired by seq, so their heap order does not matter.
func (r *PSResource) less(i, j int) bool { return r.marks[i].finish < r.marks[j].finish }

// push adds m to the heap.
func (r *PSResource) push(m finishMark) {
	r.marks = append(r.marks, m)
	for i := len(r.marks) - 1; i > 0; {
		parent := (i - 1) / 2
		if !r.less(i, parent) {
			break
		}
		r.marks[i], r.marks[parent] = r.marks[parent], r.marks[i]
		i = parent
	}
}

// pop removes and returns the heap's least mark.
func (r *PSResource) pop() finishMark {
	top := r.marks[0]
	last := len(r.marks) - 1
	r.marks[0] = r.marks[last]
	r.marks[last] = finishMark{} // release the closure
	r.marks = r.marks[:last]
	for i := 0; ; {
		l, rt := 2*i+1, 2*i+2
		least := i
		if l < last && r.less(l, least) {
			least = l
		}
		if rt < last && r.less(rt, least) {
			least = rt
		}
		if least == i {
			break
		}
		r.marks[i], r.marks[least] = r.marks[least], r.marks[i]
		i = least
	}
	return top
}
