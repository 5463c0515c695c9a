package simevent

import (
	"math/rand"
	"slices"
	"testing"
)

// firing is one fired callback as a rescheduleModel logs it: which event,
// when, and how many live events were left in the calendar.
type firing struct {
	id      int
	at      float64
	pending int
}

// rescheduleModel replays an operation script on one engine. Every op is
// two bytes: the kind (schedule, move, cancel) and an argument picking the
// delay and the timer. inPlace moves timers with Reschedule; otherwise it
// moves them the old way, Cancel then At. Each fired callback logs itself
// and runs the next two ops, so events schedule, move and cancel others
// while the calendar runs.
type rescheduleModel struct {
	eng     *Engine
	inPlace bool
	ops     []byte
	timers  []Timer
	nextID  int
	log     []firing
}

func (m *rescheduleModel) fn() func() {
	id := m.nextID
	m.nextID++
	return func() {
		m.log = append(m.log, firing{id: id, at: m.eng.Now(), pending: m.eng.Pending()})
		m.step()
		m.step()
	}
}

func (m *rescheduleModel) step() {
	if len(m.ops) < 2 {
		return
	}
	kind, arg := m.ops[0], m.ops[1]
	m.ops = m.ops[2:]
	at := m.eng.Now() + float64(arg%8)/2 // a coarse grid: many ties
	if kind%4 == 0 || len(m.timers) == 0 {
		m.timers = append(m.timers, m.eng.At(at, m.fn()))
		return
	}
	k := int(arg/8) % len(m.timers)
	switch {
	case kind%4 == 3:
		m.timers[k].Cancel()
	case m.inPlace:
		m.timers[k] = m.eng.Reschedule(m.timers[k], at, m.fn())
	default:
		m.timers[k].Cancel()
		m.timers[k] = m.eng.At(at, m.fn())
	}
}

// replay runs the first half of the script before the calendar starts, so
// the calendar grows large enough to compact, and the rest from the fired
// callbacks. It returns the firing log.
func replay(t testing.TB, ops []byte, inPlace bool) []firing {
	m := &rescheduleModel{eng: NewEngine(), inPlace: inPlace, ops: ops}
	for len(m.ops) > len(ops)/2 {
		m.step()
	}
	if _, err := m.eng.Run(len(ops) + 16); err != nil {
		t.Fatal(err)
	}
	if m.eng.Pending() != 0 {
		t.Fatalf("%d events left after the run", m.eng.Pending())
	}
	return m.log
}

// checkReschedule holds in-place re-keying to Cancel + At: the same
// callbacks fire at the same times, in the same order, with the same number
// of live events left behind each.
func checkReschedule(t testing.TB, ops []byte) {
	want, got := replay(t, ops, false), replay(t, ops, true)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("firing %d: Reschedule %+v, Cancel+At %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("Reschedule fired %d events, Cancel+At %d", len(got), len(want))
	}
}

func TestRescheduleMatchesCancelAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*(50+rng.Intn(1000)))
		rng.Read(ops)
		checkReschedule(t, ops)
	}
}

func FuzzRescheduleMatchesCancelAt(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 3, 2, 17, 3, 0, 1, 255})
	f.Add([]byte{0, 7, 0, 7, 0, 7, 1, 0, 1, 8, 1, 16, 2, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			return
		}
		checkReschedule(t, ops)
	})
}

// A fired, cancelled or zero Timer has no event to move: Reschedule
// schedules a new one, as At would.
func TestRescheduleFallsBackToAt(t *testing.T) {
	eng := NewEngine()
	var order []string
	fired := eng.At(1, func() {})
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	cancelled := eng.At(5, func() { order = append(order, "cancelled") })
	cancelled.Cancel()
	eng.Reschedule(Timer{}, 4, func() { order = append(order, "zero") })
	eng.Reschedule(cancelled, 3, func() { order = append(order, "was cancelled") })
	eng.Reschedule(fired, 2, func() { order = append(order, "was fired") })
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if want := []string{"was fired", "was cancelled", "zero"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// Moving a live event keeps its handle: Cancel through it still works.
func TestRescheduleKeepsHandle(t *testing.T) {
	eng := NewEngine()
	ran := false
	tm := eng.At(1, func() { ran = true })
	tm = eng.Reschedule(tm, 9, func() { ran = true })
	tm.Cancel()
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if ran || eng.Pending() != 0 {
		t.Errorf("moved event fired after Cancel (ran %v, pending %d)", ran, eng.Pending())
	}
}

func TestReschedulePastPanics(t *testing.T) {
	eng := NewEngine()
	tm := eng.At(8, func() {})
	panicked := false
	eng.At(5, func() {
		defer func() { panicked = recover() != nil }()
		eng.Reschedule(tm, 1, func() {})
	})
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("moving a live event before now did not panic")
	}
}
