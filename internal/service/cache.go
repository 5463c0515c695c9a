package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
// directly, so callers must not mutate results. Capacity is table-wide: a
// store that takes the table over max entries evicts its own shard's least
// recently used entry, or else the tail of the next non-empty shard, so the
// table fills to max and no further. Recency is per shard.
//
// Entries never expire: every stored value is a pure function of its key
// (which carries every input the answer reads), so capacity is the only
// reason an entry leaves.
type resultTable struct {
	shards [cacheShards]tableShard
	max    int64
	n      atomic.Int64 // completed entries over all shards
	// lookedUp, when set, is called once per do with the start of its first
	// lookup, as soon as that lookup is done (the cache_lookup span).
	lookedUp func(ctx context.Context, start time.Time)
}

// tableShard is one independently locked slice of the table.
type tableShard struct {
	mu    sync.Mutex
	order *list.List // completed entries, front = most recently used
	items map[string]*list.Element
	calls map[string]*flightCall // keys being computed
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
	t := &resultTable{max: int64(max)}
	for i := range t.shards {
		t.shards[i] = tableShard{
			order: list.New(),
			items: make(map[string]*list.Element),
			calls: make(map[string]*flightCall),
		}
	}
	return t
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
	i := shardOf(key)
	s := &t.shards[i]
	start := time.Now()
	v, c, lead := s.claim(key)
	if t.lookedUp != nil {
		t.lookedUp(ctx, start)
	}
	for c != nil {
		if lead {
			return t.lead(i, key, c, compute)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if isContextError(c.err) && ctx.Err() == nil {
			v, c, lead = s.claim(key) // the leader died of its own cancellation, not ours
			continue
		}
		return c.val, true, c.err
	}
	return v, true, nil
}

// claim looks key up under the shard lock. An entry answers at once.
// Otherwise claim returns the key's in-flight call to wait on, or
// registers a new call the caller must lead.
func (s *tableShard) claim(key string) (v any, c *flightCall, lead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*lruEntry).val, nil, false
	}
	if c, ok := s.calls[key]; ok {
		return nil, c, false
	}
	c = &flightCall{done: make(chan struct{})}
	s.calls[key] = c
	return nil, c, true
}

// lead runs compute for the call the caller claimed. The publish is
// deferred, so a panicking compute, which never overwrites the preset
// errComputePanicked, still completes its call.
func (t *resultTable) lead(i uint32, key string, c *flightCall, compute func() (any, bool, error)) (any, bool, error) {
	c.err = errComputePanicked
	defer t.publish(i, key, c)
	c.val, c.keep, c.err = compute()
	return c.val, false, c.err
}

// publish completes the call on shard i under one lock acquisition: it
// stores a cacheable value, evicts from the shard while the table is over
// capacity, drops the call and wakes its waiters. A table still over
// capacity then loses the tails of the following shards, one shard lock at
// a time.
//
// key has no entry yet: only a call's leader stores, and claim leads no key
// that has one.
func (t *resultTable) publish(i uint32, key string, c *flightCall) {
	s := &t.shards[i]
	s.mu.Lock()
	var fresh *list.Element
	if c.err == nil && c.keep {
		fresh = s.order.PushFront(&lruEntry{key: key, val: c.val})
		s.items[key] = fresh
		t.n.Add(1)
		t.trim(s, fresh)
	}
	delete(s.calls, key)
	close(c.done)
	s.mu.Unlock()
	for j := uint32(1); fresh != nil && j < cacheShards && t.n.Load() > t.max; j++ {
		o := &t.shards[(i+j)%cacheShards]
		o.mu.Lock()
		t.trim(o, nil)
		o.mu.Unlock()
	}
}

// trim evicts s's least recently used entries, never keep, while the table
// holds more than max entries. Hold s.mu. The count drops by compare-and-swap
// before the entry goes, so concurrent trims never take the table below max.
func (t *resultTable) trim(s *tableShard, keep *list.Element) {
	for {
		tail := s.order.Back()
		if tail == nil || tail == keep {
			return
		}
		n := t.n.Load()
		if n <= t.max {
			return
		}
		if t.n.CompareAndSwap(n, n-1) {
			s.order.Remove(tail)
			delete(s.items, tail.Value.(*lruEntry).key)
		}
	}
}

// len counts completed entries; calls in flight are not entries.
func (t *resultTable) len() int { return int(t.n.Load()) }

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
