package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestAdmitAndDone(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Capacity: 2, MaxQueueCost: 10, Now: clk.Now})

	tk, err := c.Admit(context.Background(), ClassCheap)
	if err != nil {
		t.Fatalf("Admit(cheap): %v", err)
	}
	if got := c.Snapshot().QueuedCost; got != DefaultCheapCost {
		t.Fatalf("queued cost = %d, want %d", got, DefaultCheapCost)
	}
	clk.Advance(50 * time.Millisecond)
	tk.Done()
	tk.Done() // second settle must be a no-op
	if got := c.Snapshot().QueuedCost; got != 0 {
		t.Fatalf("queued cost after Done = %d, want 0", got)
	}
	if s := c.Snapshot(); s.AdmittedCheap != 1 || s.AdmittedExpensive != 0 {
		t.Fatalf("admitted = %+v, want 1 cheap", s)
	}
}

func TestQueueFullShed(t *testing.T) {
	c := NewController(Config{Capacity: 1, MaxQueueCost: 2 * DefaultExpensiveCost})
	var open []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := c.Admit(context.Background(), ClassExpensive)
		if err != nil {
			t.Fatalf("Admit #%d: %v", i, err)
		}
		open = append(open, tk)
	}
	_, err := c.Admit(context.Background(), ClassExpensive)
	se, ok := IsShed(err)
	if !ok || se.Reason != ReasonQueueFull {
		t.Fatalf("third Admit = %v, want ShedError(queue_full)", err)
	}
	if se.RetryAfter < minRetryAfter {
		t.Fatalf("RetryAfter = %s, want >= %s", se.RetryAfter, minRetryAfter)
	}
	// Cheap still fits: 2×8 + 1 > 16 is false only when a slot frees.
	if _, err := c.Admit(context.Background(), ClassCheap); err == nil {
		t.Fatalf("cheap Admit at full queue should shed, got nil error")
	}
	open[0].Done()
	if _, err := c.Admit(context.Background(), ClassCheap); err != nil {
		t.Fatalf("cheap Admit after Done: %v", err)
	}
	if got := c.Snapshot().ShedQueueFull; got != 2 {
		t.Fatalf("ShedQueueFull = %d, want 2", got)
	}
}

func TestDeadlineShed(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Capacity: 1, MaxQueueCost: 1000, Now: clk.Now})

	// Teach the controller a 1s-per-unit service time.
	tk, _ := c.Admit(context.Background(), ClassCheap)
	clk.Advance(time.Second)
	tk.Done()

	// Pile up 10 cost units of outstanding work.
	var open []*Ticket
	for i := 0; i < 10; i++ {
		tk, err := c.Admit(context.Background(), ClassCheap)
		if err != nil {
			t.Fatalf("backlog Admit #%d: %v", i, err)
		}
		open = append(open, tk)
	}
	// Estimated wait behind 10 units at 1s/unit on 1 worker ≈ 9s; a 500ms
	// budget cannot make it.
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(500*time.Millisecond))
	defer cancel()
	_, err := c.Admit(ctx, ClassCheap)
	se, ok := IsShed(err)
	if !ok || se.Reason != ReasonDeadline {
		t.Fatalf("Admit with tight deadline = %v, want ShedError(deadline)", err)
	}
	// A generous budget is admitted despite the same backlog.
	ctx2, cancel2 := context.WithDeadline(context.Background(), clk.Now().Add(time.Hour))
	defer cancel2()
	if _, err := c.Admit(ctx2, ClassCheap); err != nil {
		t.Fatalf("Admit with generous deadline: %v", err)
	}
	if got := c.Snapshot().ShedDeadline; got != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", got)
	}
	for _, tk := range open {
		tk.Done()
	}
}

func TestColdStartNeverDeadlineSheds(t *testing.T) {
	// With no service-time history the wait estimate is zero: even a
	// microscopic budget is admitted (the request may still time out
	// later, but admission has no evidence to refuse it on).
	c := NewController(Config{Capacity: 1, MaxQueueCost: 1000})
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		if _, err := c.Admit(ctx, ClassExpensive); err != nil {
			cancel()
			t.Fatalf("cold-start Admit #%d: %v", i, err)
		}
		cancel()
	}
}

func TestDrainingSheds(t *testing.T) {
	c := NewController(Config{Capacity: 4})
	if c.Draining() {
		t.Fatal("fresh controller reports draining")
	}
	c.StartDrain()
	if !c.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	_, err := c.Admit(context.Background(), ClassCheap)
	se, ok := IsShed(err)
	if !ok || se.Reason != ReasonDraining {
		t.Fatalf("Admit while draining = %v, want ShedError(draining)", err)
	}
	if got := c.Snapshot().ShedDraining; got != 1 {
		t.Fatalf("ShedDraining = %d, want 1", got)
	}
}

func TestOverloaded(t *testing.T) {
	c := NewController(Config{Capacity: 1, MaxQueueCost: DefaultExpensiveCost})
	if c.Overloaded() {
		t.Fatal("empty controller reports overloaded")
	}
	tk, err := c.Admit(context.Background(), ClassExpensive)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !c.Overloaded() {
		t.Fatal("controller at MaxQueueCost should report overloaded")
	}
	tk.Done()
	if c.Overloaded() {
		t.Fatal("controller reports overloaded after Done")
	}
}

// TestAcquireSlots: the controller hands out exactly Capacity worker slots
// (a free one with zero wait), a waiter gives up when its ctx ends and
// reports its wait, and a slot freed by Release is taken even under an
// ended ctx.
func TestAcquireSlots(t *testing.T) {
	c := NewController(Config{Capacity: 2})
	for i := range 2 {
		if wait, err := c.Acquire(context.Background()); err != nil || wait != 0 {
			t.Fatalf("Acquire #%d = %v, %v; want a free slot at once", i, wait, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if wait, err := c.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) || wait <= 0 {
		t.Fatalf("Acquire on a full pool = %v, %v; want a positive wait and deadline exceeded", wait, err)
	}
	c.Release()
	if _, err := c.Acquire(ctx); err != nil {
		t.Fatalf("Acquire of a free slot under an ended ctx: %v", err)
	}
	// Slots are independent of admission cost: none was reserved.
	if got := c.Snapshot().QueuedCost; got != 0 {
		t.Fatalf("queued cost = %d, want 0", got)
	}
}

// TestAcquireBoundsConcurrency: however many goroutines contend, no more
// than Capacity hold a slot at once, and every slot is free again once
// they are done.
func TestAcquireBoundsConcurrency(t *testing.T) {
	const capacity = 3
	c := NewController(Config{Capacity: capacity})
	var busy, peak atomic.Int64
	var wg sync.WaitGroup
	for range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := busy.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			busy.Add(-1)
			c.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > capacity {
		t.Fatalf("peak slot holders = %d, want 1..%d", p, capacity)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range capacity {
		if _, err := c.Acquire(ctx); err != nil {
			t.Fatalf("slot %d still held after every holder released: %v", i, err)
		}
	}
}

func TestShedErrorWrapping(t *testing.T) {
	inner := &ShedError{Reason: ReasonQueueFull, RetryAfter: 2 * time.Second}
	wrapped := fmt.Errorf("handling request: %w", inner)
	se, ok := IsShed(wrapped)
	if !ok || se != inner {
		t.Fatalf("IsShed(wrapped) = (%v, %v), want inner", se, ok)
	}
	if _, ok := IsShed(errors.New("plain")); ok {
		t.Fatal("IsShed(plain error) = true")
	}
	if got := inner.Error(); got == "" {
		t.Fatal("ShedError.Error() empty")
	}
}

func TestConcurrentAdmitBounded(t *testing.T) {
	c := NewController(Config{Capacity: 4, MaxQueueCost: 40})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tickets []*Ticket
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := c.Admit(context.Background(), ClassCheap)
			if err != nil {
				return
			}
			mu.Lock()
			tickets = append(tickets, tk)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := c.Snapshot().QueuedCost; got > 40 {
		t.Fatalf("queued cost %d exceeds bound 40 under stampede", got)
	}
	if len(tickets) != 40 {
		t.Fatalf("admitted %d of 200 at bound 40, want exactly 40", len(tickets))
	}
	for _, tk := range tickets {
		tk.Done()
	}
	if got := c.Snapshot().QueuedCost; got != 0 {
		t.Fatalf("queued cost after settling = %d, want 0", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Capacity: 1, Now: clk.Now})
	for i := 0; i < 100; i++ {
		tk, err := c.Admit(context.Background(), ClassCheap)
		if err != nil {
			t.Fatalf("Admit #%d: %v", i, err)
		}
		clk.Advance(100 * time.Millisecond)
		tk.Done()
	}
	got := c.unitSeconds()
	if got < 0.09 || got > 0.11 {
		t.Fatalf("unitSeconds after steady 100ms observations = %v, want ≈0.1", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassCheap.String() != "cheap" || ClassExpensive.String() != "expensive" {
		t.Fatalf("class names = %q/%q", ClassCheap, ClassExpensive)
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class name empty")
	}
}
