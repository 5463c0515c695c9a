package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	tab := newResultTable(16)
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
	tab := newResultTable(16)
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

// resident counts the entries on the LRU list by walking it, independently
// of the length len reads; it returns -1 if the key index disagrees.
func (t *resultTable) resident() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for el := t.order.Front(); el != nil; el = el.Next() {
		if t.items[el.Value.(*lruEntry).key] != el {
			return -1
		}
		n++
	}
	if n != len(t.items) {
		return -1
	}
	return n
}

// TestTableFillsToCapacity: distinct stores fill the table to exactly
// min(keys, capacity), and the newest entry survives.
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

// TestTableCapacityUnderConcurrentStores: racing stores never leave the
// table over its capacity, and never evict it below a full table, once
// every call has returned. Run it under -race.
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

// keys lists the stored keys from most to least recently used.
func (t *resultTable) keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ks []string
	for el := t.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*lruEntry).key)
	}
	return ks
}

// TestTableEvictsGlobalLRU: recency is table-wide, so a refreshed entry
// survives and each store into a full table evicts the globally least
// recently used entry, whatever the keys hash to. The keys are chosen so
// that recency kept per 16-way FNV-1a hash bucket would evict refreshed
// key-2, key-4 and key-6 and keep key-1, key-3 and key-7.
func TestTableEvictsGlobalLRU(t *testing.T) {
	tab := newResultTable(8)
	for i := 0; i < 8; i++ {
		tab.add(fmt.Sprintf("key-%d", i), i)
	}
	for i := 0; i < 8; i += 2 {
		if _, ok := tab.get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d missing before any eviction", i)
		}
	}
	for i := 8; i < 12; i++ {
		tab.add(fmt.Sprintf("key-%d", i), i)
	}
	want := []string{"key-11", "key-10", "key-9", "key-8", "key-6", "key-4", "key-2", "key-0"}
	if got := tab.keys(); !slices.Equal(got, want) {
		t.Errorf("resident keys, most recent first = %v, want %v", got, want)
	}
	for i := 0; i < 12; i++ {
		v, ok := tab.get(fmt.Sprintf("key-%d", i))
		if evicted := i < 8 && i%2 == 1; ok == evicted || (ok && v != i) {
			t.Errorf("key-%d = %v %v, want evicted %v", i, v, ok, evicted)
		}
	}
}

// lruModel is the reference the result table must match: a plain slice of
// entries, most recently used first, that drops its last entry when a store
// takes it over max.
type lruModel struct {
	max     int
	entries []lruEntry
}

// lookup reports key's value and moves it to the front.
func (m *lruModel) lookup(key string) (any, bool) {
	for i, e := range m.entries {
		if e.key == key {
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = e
			return e.val, true
		}
	}
	return nil, false
}

// store puts a new key in front and returns the key it evicts, if any.
func (m *lruModel) store(key string, val any) (evicted string) {
	m.entries = append([]lruEntry{{key, val}}, m.entries...)
	if len(m.entries) > m.max {
		evicted = m.entries[m.max].key
		m.entries = m.entries[:m.max]
	}
	return evicted
}

// FuzzResultTableMatchesLRU runs a script of stores, uncacheable stores and
// lookups over eight keys on a table of capacity 1 to 4. The first byte
// picks the capacity; each further byte is one operation (top two bits: 0
// store, 1 uncacheable store, else lookup; low three bits: the key). After
// every operation the table must agree with lruModel on the hit, the value
// served, len and the resident keys in recency order, so also on which key
// a store evicted.
func FuzzResultTableMatchesLRU(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0x80, 2, 0x81, 0x40, 0x43, 3})
	f.Add([]byte{0, 0, 1, 0, 0x80, 0x81, 0x41, 1})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 0x80, 0x82, 5, 6, 0x81, 7, 0x40, 0x44, 0x84})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := &lruModel{max: int(data[0]%4) + 1}
		tab := newResultTable(m.max)
		for i, b := range data[1:] {
			op, key := b>>6, fmt.Sprintf("k%d", b&7)
			want, hit := m.lookup(key)
			var v any
			var cached bool
			var err error
			switch op {
			case 0, 1:
				v, cached, err = tab.do(context.Background(), key, func() (any, bool, error) { return i, op == 0, nil })
			default:
				v, cached, err = tab.do(context.Background(), key, func() (any, bool, error) { return nil, false, errNotStored })
			}
			var evicted string
			switch {
			case hit:
				if v != want || !cached || err != nil {
					t.Fatalf("op %d on %s: got %v cached %v %v, want the hit %v", i, key, v, cached, err, want)
				}
			case op == 2 || op == 3:
				if cached || !errors.Is(err, errNotStored) {
					t.Fatalf("op %d lookup of %s: got %v cached %v %v, want a miss", i, key, v, cached, err)
				}
			default:
				if v != i || cached || err != nil {
					t.Fatalf("op %d store of %s: got %v cached %v %v, want %d computed", i, key, v, cached, err, i)
				}
				if op == 0 {
					evicted = m.store(key, i)
				}
			}
			got, wantKeys := tab.keys(), make([]string, len(m.entries))
			for j, e := range m.entries {
				wantKeys[j] = e.key
			}
			if !slices.Equal(got, wantKeys) || tab.len() != len(wantKeys) {
				t.Fatalf("op %d on %s (evicting %q): table holds %v (len %d), model %v", i, key, evicted, got, tab.len(), wantKeys)
			}
		}
	})
}

// BenchmarkResultTableHit serves lookups of 256 stored keys, 64 hex digits
// long like the canonical request hashes, from b.RunParallel goroutines,
// each starting at its own offset in the key list: every call is a hit, so
// it measures the lookup and the lock alone. Run it at -cpu 1,2 to see
// contention.
func BenchmarkResultTableHit(b *testing.B) {
	const n = 256
	tab := newResultTable(DefaultCacheSize)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
		tab.add(keys[i], i)
	}
	miss := func() (any, bool, error) { return nil, false, errNotStored }
	var goroutines atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for i := int(goroutines.Add(1)) * 97; pb.Next(); i++ {
			if _, _, err := tab.do(ctx, keys[i%n], miss); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
