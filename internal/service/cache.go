package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// cacheShards is the shard count of the result table. Requests hash to a
// shard by key, so concurrent traffic contends on 1/cacheShards of a lock
// instead of serializing on one global mutex. A power of two keeps the
// modulo cheap.
const cacheShards = 16

// shardOf maps a canonical request key to its shard (FNV-1a over the key).
// Keys are hex SHA-256 digests, so any stable hash spreads them evenly.
func shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % cacheShards
}

// resultTable is the service's one record of each canonical request key:
// absent, in flight (one computation that identical concurrent requests
// join instead of repeating), or done (a completed response in an N-way
// sharded LRU). Each shard keeps both states under one mutex, so a hit
// takes one lock acquisition and a miss two: one to claim the key, one to
// publish its result.
//
// Values are treated as immutable once stored: hits return the stored value
// directly, so callers must not mutate results. Total capacity is split
// evenly over the shards (rounded up, minimum one entry per shard).
//
// A positive ttl ages entries: an expired entry reads as a miss (the
// recompute replaces it) but stays resident until evicted by capacity, so
// it can still be served stale while saturated reports that a recompute
// would queue (the serve-stale degradation mode). ttl zero never expires an
// entry.
type resultTable struct {
	shards [cacheShards]tableShard
	ttl    time.Duration
	// saturated reports whether a recompute would have to queue for a
	// worker slot; nil never serves stale.
	saturated func() bool
	// lookedUp, when set, is called once per do with the start of its first
	// lookup, as soon as that lookup is done (the cache_lookup span).
	lookedUp func(ctx context.Context, start time.Time)
}

// tableShard is one independently locked slice of the table.
type tableShard struct {
	mu    sync.Mutex
	max   int
	order *list.List // completed entries, front = most recently used
	items map[string]*list.Element
	calls map[string]*flightCall // keys being computed
}

type lruEntry struct {
	key      string
	val      any
	storedAt time.Time
}

// flightCall is one in-flight computation; done closes once val, keep and
// err are final.
type flightCall struct {
	done chan struct{}
	val  any
	keep bool // compute marked val cacheable
	err  error
}

// outcome says how resultTable.do produced its value.
type outcome uint8

const (
	computed outcome = iota // this call computed the value and stored it
	hit                     // a live entry, or the stored result of a call it joined
	staleHit                // an expired entry served under saturation
	uncached                // a value its compute marked not cacheable
)

// errComputePanicked is what the waiters of a panicking computation get.
var errComputePanicked = errors.New("service: computation panicked")

func newResultTable(max int, ttl time.Duration) *resultTable {
	perShard := (max + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	t := &resultTable{ttl: ttl}
	for i := range t.shards {
		t.shards[i] = tableShard{
			max:   perShard,
			order: list.New(),
			items: make(map[string]*list.Element),
			calls: make(map[string]*flightCall),
		}
	}
	return t
}

// do serves key: from a live entry, from an expired one under saturation,
// by joining the computation already in flight for it, or by running
// compute and publishing its result. compute reports whether its value may
// be stored; an error is never stored.
//
// Waiters honor ctx; the leader's compute observes its own. A waiter whose
// leader failed only by the leader's own cancellation does not inherit it:
// while ctx is live it looks the key up again and may lead. A compute that
// panics completes its call with errComputePanicked before the panic goes
// on up the leader's stack: its waiters get that error, nothing is stored,
// and the next caller leads a fresh computation.
func (t *resultTable) do(ctx context.Context, key string, compute func() (any, bool, error)) (any, outcome, error) {
	s := &t.shards[shardOf(key)]
	start := time.Now()
	v, how, c, lead := t.claim(s, key)
	if t.lookedUp != nil {
		t.lookedUp(ctx, start)
	}
	for c != nil {
		if lead {
			return s.lead(key, c, compute)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, hit, ctx.Err()
		}
		if isContextError(c.err) && ctx.Err() == nil {
			v, how, c, lead = t.claim(s, key) // the leader died of its own cancellation, not ours
			continue
		}
		return c.result(hit)
	}
	return v, how, nil
}

// claim looks key up under its shard lock. A live entry, or an expired one
// while saturated, answers at once. Otherwise claim returns the key's
// in-flight call to wait on, or registers a new call the caller must lead.
func (t *resultTable) claim(s *tableShard, key string) (v any, how outcome, c *flightCall, lead bool) {
	// Read before locking: no caller-supplied code runs under a shard lock.
	saturated := t.ttl > 0 && t.saturated != nil && t.saturated()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*lruEntry)
		if t.ttl <= 0 || time.Since(e.storedAt) <= t.ttl {
			s.order.MoveToFront(el)
			return e.val, hit, nil, false
		}
		// A stale serve leaves recency alone, so dead entries are not
		// pinned against eviction.
		if saturated {
			return e.val, staleHit, nil, false
		}
	}
	if c, ok := s.calls[key]; ok {
		return nil, hit, c, false
	}
	c = &flightCall{done: make(chan struct{})}
	s.calls[key] = c
	return nil, computed, c, true
}

// lead runs compute for the call the caller claimed. The publish is
// deferred, so a panicking compute, which never overwrites the preset
// errComputePanicked, still completes its call.
func (s *tableShard) lead(key string, c *flightCall, compute func() (any, bool, error)) (any, outcome, error) {
	c.err = errComputePanicked
	defer s.publish(key, c)
	c.val, c.keep, c.err = compute()
	return c.result(computed)
}

// result is a finished call's answer, reading a stored value as stored.
func (c *flightCall) result(stored outcome) (any, outcome, error) {
	switch {
	case c.err != nil:
		return nil, stored, c.err
	case !c.keep:
		return c.val, uncached, nil
	}
	return c.val, stored, nil
}

// publish completes a call under one lock acquisition: it stores a
// cacheable value, drops the call and wakes its waiters.
func (s *tableShard) publish(key string, c *flightCall) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.err == nil && c.keep {
		s.store(key, c.val)
	}
	delete(s.calls, key)
	close(c.done)
}

// store makes val key's entry, fresh and most recently used, and evicts the
// shard's least recently used entries beyond its capacity. Hold s.mu.
func (s *tableShard) store(key string, val any) {
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.val, e.storedAt = val, time.Now()
		return
	}
	s.items[key] = s.order.PushFront(&lruEntry{key: key, val: val, storedAt: time.Now()})
	for s.order.Len() > s.max {
		tail := s.order.Back()
		s.order.Remove(tail)
		delete(s.items, tail.Value.(*lruEntry).key)
	}
}

// len counts completed entries; calls in flight are not entries.
func (t *resultTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
