// Package simevent is a small discrete-event simulation engine with
// contention-aware resources. It provides the substrate on which the YARN
// cluster simulator (internal/mrsim) executes: an event calendar plus
// processor-sharing resources that convert "seconds of work" into elapsed
// time under concurrency.
//
// The calendar is engineered for the simulator hot path: scheduled events
// live in a value slice managed by a free list (one arena slot per pending
// event, reused once the event fires), the binary heap orders lightweight
// index entries, and each slot knows its heap position, so Reschedule moves
// a pending event in place instead of cancelling it and pushing a new one.
// Processor-sharing resources re-key their one pending completion that way
// on every state change; only a node crash (PSResource.Clear) cancels.
//
// A processor-sharing resource runs on a virtual clock: V is the service
// each of its active tasks has received since the resource last went
// empty, and a task submitted with work w carries the finish mark V + w in
// a min-heap. An event advances V by rate × elapsed and looks only at the
// heap's top, so it costs O(log n) for n active tasks. Ties go by the
// completion tolerance: a completion event pops every mark within 1e-9 of
// V and fires those tasks together, in submission order.
// Cancelled events are compacted away once they exceed half the calendar
// instead of lingering until popped. Engines are reusable via Reset, so
// callers running many simulations (median-of-seeds, planner sweeps) can
// pool them.
package simevent

import (
	"context"
	"fmt"
)

// entry is one calendar position: the scheduled time, a FIFO tie-break
// sequence, and the arena slot holding the callback. Entries move inside the
// heap; slots do not, so Timer handles stay valid.
type entry struct {
	time float64
	seq  uint64
	slot int32
}

// slot is one arena cell. gen guards Timer handles against slot reuse: a
// slot is freed (and its generation bumped) only when its calendar entry is
// removed, so every pending event owns exactly one slot. pos is the index
// of that entry in the heap, kept current by every move.
type slot struct {
	fn   func()
	pos  int32
	gen  uint32
	live bool
}

// compactMinLen is the calendar size below which dead entries are left for
// RunContext to skip: compaction of tiny calendars costs more than it saves.
const compactMinLen = 64

// Engine is a single-threaded discrete-event simulator clock and calendar.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	cal   []entry // binary min-heap by (time, seq)
	slots []slot
	free  []int32
	dead  int // cancelled entries still occupying calendar positions
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Len returns the number of calendar entries, including cancelled ones not
// yet compacted or popped.
func (e *Engine) Len() int { return len(e.cal) }

// Reset returns the engine to its initial state (clock at 0, empty
// calendar) while keeping its allocated capacity, so one engine can serve
// many simulation runs. Outstanding Timer handles are invalidated.
func (e *Engine) Reset() {
	e.now, e.seq, e.dead = 0, 0, 0
	e.cal = e.cal[:0]
	e.free = e.free[:0]
	for i := range e.slots {
		e.slots[i].fn = nil
		e.slots[i].live = false
		e.slots[i].gen++ // stale Timers from the previous run must not cancel
		e.free = append(e.free, int32(i))
	}
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is a valid no-op handle.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing; safe to call after it fired. The
// calendar entry is reclaimed lazily: either skipped on pop or swept out in
// bulk once dead entries exceed half the calendar.
func (t Timer) Cancel() {
	e := t.eng
	if e == nil {
		return
	}
	s := &e.slots[t.slot]
	if s.gen != t.gen || !s.live {
		return // already fired, cancelled, or the slot was recycled
	}
	s.live = false
	s.fn = nil
	e.dead++
	if e.dead*2 > len(e.cal) && len(e.cal) >= compactMinLen {
		e.compact()
	}
}

// At schedules fn at absolute time t (>= Now). Scheduling in the past panics:
// that is always a simulator bug.
func (e *Engine) At(t float64, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("simevent: scheduling at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	s.live = true
	e.cal = append(e.cal, entry{time: t, seq: e.seq, slot: idx})
	e.seq++
	e.siftUp(len(e.cal) - 1)
	return Timer{eng: e, slot: idx, gen: s.gen}
}

// Reschedule moves tm's pending event to absolute time t (>= Now) and makes
// it fire fn, keeping the calendar entry and the handle. The event takes a
// fresh sequence number, so it fires exactly where tm.Cancel() followed by
// At(t, fn) would put it: (time, seq) totally orders the live events, and
// the move gives them the same keys. If tm already fired or was cancelled
// (or is the zero Timer), Reschedule is At(t, fn).
func (e *Engine) Reschedule(tm Timer, t float64, fn func()) Timer {
	if tm.eng != e {
		return e.At(t, fn)
	}
	s := &e.slots[tm.slot]
	if s.gen != tm.gen || !s.live {
		return e.At(t, fn)
	}
	if t < e.now {
		panic(fmt.Sprintf("simevent: scheduling at %v before now %v", t, e.now))
	}
	s.fn = fn
	i := int(s.pos)
	e.cal[i].time = t
	e.cal[i].seq = e.seq
	e.seq++
	if e.siftUp(i) == i {
		e.siftDown(i)
	}
	return tm
}

// After schedules fn after delay d (>= 0).
func (e *Engine) After(d float64, fn func()) Timer { return e.At(e.now+d, fn) }

// RunContext processes events until the calendar is empty or maxEvents
// events have fired. It returns the number of events processed and an error
// if the event budget was exhausted (guarding against runaway simulations).
// Cancelled events are skipped without counting against the budget. Every
// 64k fired events it polls ctx and aborts with ctx.Err() once the context
// is done, so a canceled caller gets its goroutine back promptly instead of
// waiting out the whole event budget.
func (e *Engine) RunContext(ctx context.Context, maxEvents int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err // already canceled: don't start at all
	}
	n := 0
	for len(e.cal) > 0 {
		top := e.cal[0]
		last := len(e.cal) - 1
		e.cal[0] = e.cal[last]
		e.cal = e.cal[:last]
		if last > 0 {
			e.slots[e.cal[0].slot].pos = 0
			e.siftDown(0)
		}
		s := &e.slots[top.slot]
		fn := s.fn
		wasLive := s.live
		s.fn = nil
		s.live = false
		s.gen++
		e.free = append(e.free, top.slot)
		if !wasLive {
			e.dead--
			continue
		}
		e.now = top.time
		n++
		if n > maxEvents {
			return n, fmt.Errorf("simevent: exceeded event budget of %d", maxEvents)
		}
		if n&0xFFFF == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		fn()
	}
	return n, nil
}

// compact sweeps cancelled entries out of the calendar in one pass and
// restores the heap property, bounding calendar growth to 2x the live event
// count regardless of how many timers are cancelled.
func (e *Engine) compact() {
	w := 0
	for _, en := range e.cal {
		s := &e.slots[en.slot]
		if s.live {
			e.cal[w] = en
			s.pos = int32(w)
			w++
			continue
		}
		s.fn = nil
		s.gen++
		e.free = append(e.free, en.slot)
	}
	e.cal = e.cal[:w]
	e.dead = 0
	// Bottom-up heapify: O(n), cheaper than n sift-ups.
	for i := w/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Engine) less(i, j int) bool {
	a, b := e.cal[i], e.cal[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// swap exchanges two heap entries and records their new positions.
func (e *Engine) swap(i, j int) {
	e.cal[i], e.cal[j] = e.cal[j], e.cal[i]
	e.slots[e.cal[i].slot].pos = int32(i)
	e.slots[e.cal[j].slot].pos = int32(j)
}

// siftUp moves entry i toward the root and returns where it stopped.
func (e *Engine) siftUp(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
	e.slots[e.cal[i].slot].pos = int32(i)
	return i
}

func (e *Engine) siftDown(i int) {
	n := len(e.cal)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.less(l, min) {
			min = l
		}
		if r < n && e.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		e.swap(i, min)
		i = min
	}
}
