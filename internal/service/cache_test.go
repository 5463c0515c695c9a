package service

import (
	"context"
	"errors"
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
	v, how, err := t.do(context.Background(), key, func() (any, bool, error) { return nil, false, errNotStored })
	return v, err == nil && how == hit
}

// TestPanickingComputeDoesNotWedgeKey: a compute that panics must still
// complete its call. Its waiter gets an error instead of waiting forever,
// nothing is stored, and the next caller for the key leads a fresh
// computation well inside its deadline.
func TestPanickingComputeDoesNotWedgeKey(t *testing.T) {
	tab := newResultTable(cacheShards, 0)
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
	v, how, err := tab.do(ctx, "k", func() (any, bool, error) { return "fresh", true, nil })
	if err != nil || v != "fresh" || how != computed {
		t.Fatalf("call after panic = %v %v %v, want a fresh computation", v, how, err)
	}
	if d := time.Since(start); d > deadline/2 {
		t.Errorf("call after panic took %v of its %v deadline", d, deadline)
	}
}

// TestUncacheableResultIsShared: a value its compute marks not cacheable
// reaches the leader and every waiter as uncached, and the next call
// computes again.
func TestUncacheableResultIsShared(t *testing.T) {
	tab := newResultTable(cacheShards, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var leaderHow, waiterHow outcome
	var waiterVal any
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, leaderHow, _ = tab.do(context.Background(), "k", func() (any, bool, error) {
			close(started)
			<-release
			return "degraded", false, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		waiterVal, waiterHow, _ = tab.do(context.Background(), "k", func() (any, bool, error) {
			return "waiter led", true, nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter join the call
	close(release)
	wg.Wait()
	if leaderHow != uncached || waiterHow != uncached || waiterVal != "degraded" {
		t.Errorf("leader %v, waiter %v %v; want both uncached with the leader's value", leaderHow, waiterVal, waiterHow)
	}
	if n := tab.len(); n != 0 {
		t.Errorf("uncacheable value stored: %d entries", n)
	}
	if v, how, err := tab.do(context.Background(), "k", func() (any, bool, error) { return "real", true, nil }); err != nil || v != "real" || how != computed {
		t.Errorf("next call = %v %v %v, want a fresh computation", v, how, err)
	}
}
