package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// resultTable is the service's one record of each canonical request key:
// absent, in flight (one computation that identical concurrent requests
// join instead of repeating), or done (a completed response in an LRU).
// One mutex guards both states, so a hit takes one lock acquisition and a
// miss two: one to claim the key, one to publish its result.
//
// Values are treated as immutable once stored: hits return the stored value
// directly, so callers must not mutate results. The table holds at most max
// entries: a store into a full table evicts the least recently used entry.
//
// Entries never expire: every stored value is a pure function of its key
// (which carries every input the answer reads), so capacity is the only
// reason an entry leaves.
type resultTable struct {
	mu    sync.Mutex
	max   int
	order *list.List // completed entries, front = most recently used
	items map[string]*list.Element
	calls map[string]*flightCall // keys being computed
	// lookedUp, when set, is called once per do with the start of its first
	// lookup, as soon as that lookup is done (the cache_lookup span).
	lookedUp func(ctx context.Context, start time.Time)
}

type lruEntry struct {
	key string
	val any
}

// flightCall is one in-flight computation; done closes once val, keep and
// err are final.
type flightCall struct {
	done chan struct{}
	val  any
	keep bool // compute marked val cacheable
	err  error
}

// errComputePanicked is what the waiters of a panicking computation get.
var errComputePanicked = errors.New("service: computation panicked")

func newResultTable(max int) *resultTable {
	return &resultTable{
		max:   max,
		order: list.New(),
		items: make(map[string]*list.Element),
		calls: make(map[string]*flightCall),
	}
}

// do serves key: from its entry, by joining the computation already in
// flight for it, or by running compute and publishing its result. cached
// reports that this call did not compute the value. compute reports
// whether its value may be stored; an error is never stored.
//
// Waiters honor ctx; the leader's compute observes its own. A waiter whose
// leader failed only by the leader's own cancellation does not inherit it:
// while ctx is live it looks the key up again and may lead. A compute that
// panics completes its call with errComputePanicked before the panic goes
// on up the leader's stack: its waiters get that error, nothing is stored,
// and the next caller leads a fresh computation.
func (t *resultTable) do(ctx context.Context, key string, compute func() (any, bool, error)) (v any, cached bool, err error) {
	start := time.Now()
	v, c, lead := t.claim(key)
	if t.lookedUp != nil {
		t.lookedUp(ctx, start)
	}
	for c != nil {
		if lead {
			return t.lead(key, c, compute)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if isContextError(c.err) && ctx.Err() == nil {
			v, c, lead = t.claim(key) // the leader died of its own cancellation, not ours
			continue
		}
		return c.val, true, c.err
	}
	return v, true, nil
}

// claim looks key up under the lock. An entry answers at once. Otherwise
// claim returns the key's in-flight call to wait on, or registers a new
// call the caller must lead.
func (t *resultTable) claim(key string) (v any, c *flightCall, lead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*lruEntry).val, nil, false
	}
	if c, ok := t.calls[key]; ok {
		return nil, c, false
	}
	c = &flightCall{done: make(chan struct{})}
	t.calls[key] = c
	return nil, c, true
}

// lead runs compute for the call the caller claimed. The publish is
// deferred, so a panicking compute, which never overwrites the preset
// errComputePanicked, still completes its call.
func (t *resultTable) lead(key string, c *flightCall, compute func() (any, bool, error)) (any, bool, error) {
	c.err = errComputePanicked
	defer t.publish(key, c)
	c.val, c.keep, c.err = compute()
	return c.val, false, c.err
}

// publish completes the call under one lock acquisition: it stores a
// cacheable value, evicting the least recently used entry when the table
// is full, drops the call and wakes its waiters.
//
// key has no entry yet: only a call's leader stores, and claim leads no key
// that has one.
func (t *resultTable) publish(key string, c *flightCall) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.err == nil && c.keep {
		if t.order.Len() >= t.max {
			tail := t.order.Back()
			t.order.Remove(tail)
			delete(t.items, tail.Value.(*lruEntry).key)
		}
		t.items[key] = t.order.PushFront(&lruEntry{key: key, val: c.val})
	}
	delete(t.calls, key)
	close(c.done)
}

// len counts completed entries; calls in flight are not entries.
func (t *resultTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
