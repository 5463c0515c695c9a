package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var errNotStored = errors.New("not stored")

// add stores val under a new key the way a leading caller does.
func (t *resultTable) add(key string, val any) {
	t.do(context.Background(), key, func() (any, bool, error) { return val, true, nil })
}

// get serves only what is stored: a miss leads a compute that fails, so it
// stores nothing.
func (t *resultTable) get(key string) (any, bool) {
	v, cached, err := t.do(context.Background(), key, func() (any, bool, error) { return nil, false, errNotStored })
	return v, err == nil && cached
}

// TestPanickingComputeDoesNotWedgeKey: a compute that panics must still
// complete its call. Its waiter gets an error instead of waiting forever,
// nothing is stored, and the next caller for the key leads a fresh
// computation well inside its deadline.
func TestPanickingComputeDoesNotWedgeKey(t *testing.T) {
	tab := newResultTable(cacheShards)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		tab.do(context.Background(), "k", func() (any, bool, error) {
			close(started)
			<-release
			panic("compute exploded")
		})
	}()

	<-started
	waiterErr := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _, err := tab.do(ctx, "k", func() (any, bool, error) { return "waiter led", true, nil })
		waiterErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter join the call
	close(release)
	if p := <-leaderDone; p != "compute exploded" {
		t.Fatalf("leader recovered %v, want the compute's panic", p)
	}
	if err := <-waiterErr; !errors.Is(err, errComputePanicked) {
		t.Errorf("waiter err = %v, want %v", err, errComputePanicked)
	}
	if n := tab.len(); n != 0 {
		t.Errorf("panicked compute stored %d entries", n)
	}

	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	v, cached, err := tab.do(ctx, "k", func() (any, bool, error) { return "fresh", true, nil })
	if err != nil || v != "fresh" || cached {
		t.Fatalf("call after panic = %v cached %v %v, want a fresh computation", v, cached, err)
	}
	if d := time.Since(start); d > deadline/2 {
		t.Errorf("call after panic took %v of its %v deadline", d, deadline)
	}
}

// TestUncacheableResultIsShared: a value its compute marks not cacheable
// reaches the leader as computed and every waiter as cached on the shared
// call, nothing is stored, and the next call computes again.
func TestUncacheableResultIsShared(t *testing.T) {
	tab := newResultTable(cacheShards)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var leaderCached, waiterCached bool
	var waiterVal any
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, leaderCached, _ = tab.do(context.Background(), "k", func() (any, bool, error) {
			close(started)
			<-release
			return "degraded", false, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		waiterVal, waiterCached, _ = tab.do(context.Background(), "k", func() (any, bool, error) {
			return "waiter led", true, nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter join the call
	close(release)
	wg.Wait()
	if leaderCached || !waiterCached || waiterVal != "degraded" {
		t.Errorf("leader cached %v, waiter %v cached %v; want computed, and a hit with the leader's value", leaderCached, waiterVal, waiterCached)
	}
	if n := tab.len(); n != 0 {
		t.Errorf("uncacheable value stored: %d entries", n)
	}
	if v, cached, err := tab.do(context.Background(), "k", func() (any, bool, error) { return "real", true, nil }); err != nil || v != "real" || cached {
		t.Errorf("next call = %v cached %v %v, want a fresh computation", v, cached, err)
	}
}

// resident counts the entries the shards hold, independently of the
// table-wide count len reads.
func (t *resultTable) resident() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// TestTableFillsToCapacity: capacity is table-wide, so distinct stores
// fill the table to exactly min(keys, capacity) whatever the shard spread,
// and the newest entry survives.
func TestTableFillsToCapacity(t *testing.T) {
	for _, tc := range []struct{ max, keys, want int }{
		{1024, 1000, 1000},
		{16, 16, 16},
		{1, 5000, 1},
		{1024, 5000, 1024},
	} {
		tab := newResultTable(tc.max)
		for i := 0; i < tc.keys; i++ {
			tab.add(fmt.Sprintf("key-%d", i), i)
		}
		if n, r := tab.len(), tab.resident(); n != tc.want || r != n {
			t.Errorf("%d keys into %d slots: len %d, resident %d, want %d", tc.keys, tc.max, n, r, tc.want)
		}
		last := tc.keys - 1
		if v, ok := tab.get(fmt.Sprintf("key-%d", last)); !ok || v != last {
			t.Errorf("%d keys into %d slots: newest entry = %v %v", tc.keys, tc.max, v, ok)
		}
	}
}

// TestTableCapacityUnderConcurrentStores: stores racing on every shard
// never leave the table over its capacity, and never evict it below a full
// table, once every call has returned. Run it under -race.
func TestTableCapacityUnderConcurrentStores(t *testing.T) {
	const max, writers, perWriter = 100, 8, 1000
	tab := newResultTable(max)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tab.add(fmt.Sprintf("w%d-key-%d", w, i), i)
			}
		}()
	}
	wg.Wait()
	if n, r := tab.len(), tab.resident(); n != max || r != n {
		t.Errorf("after %d concurrent stores: len %d, resident %d, want %d", writers*perWriter, n, r, max)
	}
}
