package simevent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// psUnderTest is what the script driver and the benchmark need of a
// processor-sharing resource: PSResource and its oracle both have it.
type psUnderTest interface {
	Submit(work float64, done func())
	Clear()
	BusyTime() float64
}

// psFiring is one completion callback: which task, and when.
type psFiring struct {
	id   int
	time float64
}

// psScriptCapacities are the capacities a script picks from: fractional
// ones, where the per-task rate is not a power of two, among whole ones.
var psScriptCapacities = []float64{1, 1.5, 2, 3, 0.5, 8}

// psScriptOp is one decoded step of a script.
type psScriptOp struct {
	at    float64
	clear bool
	work  float64
}

// decodePSScript turns fuzz bytes into a capacity and a list of timed
// steps. The first byte picks the capacity; every following 3 bytes are one
// step. Its first byte advances the clock by a multiple of 1/16 s (0 puts
// the step at the same time as the previous one) and, when its low three
// bits are all set, makes the step a Clear. Otherwise the next two bytes are
// a submit's work code: 0 is zero work, 1 is negative work, 2 repeats the
// previous work exactly, and any other code is a work on a log grid from
// 1e-6 to 1e4.
func decodePSScript(data []byte) (float64, []psScriptOp) {
	if len(data) == 0 {
		return 1, nil
	}
	capacity := psScriptCapacities[int(data[0])%len(psScriptCapacities)]
	data = data[1:]
	var ops []psScriptOp
	at, last := 0.0, 1.0
	for len(data) >= 3 && len(ops) < 256 {
		b, code := data[0], int(data[1])<<8|int(data[2])
		data = data[3:]
		at += float64(b>>3) / 16
		if b&7 == 7 {
			ops = append(ops, psScriptOp{at: at, clear: true})
			continue
		}
		var work float64
		switch code {
		case 0:
			work = 0
		case 1:
			work = -1
		case 2:
			work = last
		default:
			work = 1e-6 * math.Pow(10, 10*float64(code)/65535)
			last = work
		}
		ops = append(ops, psScriptOp{at: at, work: work})
	}
	return capacity, ops
}

// runPSScript plays ops on a fresh engine and the resource mk builds on it,
// and returns every completion in firing order and the resource's
// BusyTime at the end.
func runPSScript(t testing.TB, mk func(*Engine) psUnderTest, ops []psScriptOp) ([]psFiring, float64) {
	eng := NewEngine()
	r := mk(eng)
	var fired []psFiring
	for i, op := range ops {
		id := i
		if op.clear {
			eng.At(op.at, r.Clear)
			continue
		}
		eng.At(op.at, func() {
			r.Submit(op.work, func() { fired = append(fired, psFiring{id, eng.Now()}) })
		})
	}
	if _, err := eng.Run(100_000); err != nil {
		t.Fatal(err)
	}
	return fired, r.BusyTime()
}

// psTimeTol bounds how far a completion of the virtual clock may land from
// the oracle's: the two compute a task's remaining work with different
// roundings (F − V against a running difference), a few ulps of one busy
// period's service, which the rate divides back into time.
func psTimeTol(t float64) float64 { return 1e-9 * (1 + math.Abs(t)) }

// checkPSScript runs one script on PSResource and on the oracle: the same
// callbacks must fire in the same order, each at a time within psTimeTol of
// the oracle's, and BusyTime must agree within the same tolerance.
func checkPSScript(t testing.TB, data []byte) {
	capacity, ops := decodePSScript(data)
	got, gotBusy := runPSScript(t, func(e *Engine) psUnderTest { return NewPSResource(e, "x", capacity) }, ops)
	want, wantBusy := runPSScript(t, func(e *Engine) psUnderTest { return newOraclePS(e, "x", capacity) }, ops)
	if len(got) != len(want) {
		t.Fatalf("capacity %v: %d completions, oracle %d", capacity, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id {
			t.Fatalf("capacity %v: completion %d is task %d at %v, oracle task %d at %v",
				capacity, i, got[i].id, got[i].time, want[i].id, want[i].time)
		}
		if math.Abs(got[i].time-want[i].time) > psTimeTol(want[i].time) {
			t.Fatalf("capacity %v: task %d done at %v, oracle at %v", capacity, got[i].id, got[i].time, want[i].time)
		}
	}
	if math.Abs(gotBusy-wantBusy) > psTimeTol(wantBusy) {
		t.Fatalf("capacity %v: BusyTime %v, oracle %v", capacity, gotBusy, wantBusy)
	}
}

// psSeedScripts are hand-written scripts (equal works at one instant, a
// clear mid-run, zero and negative works, a long contended run) and random
// ones.
func psSeedScripts() [][]byte {
	seeds := [][]byte{
		// capacity 1.5: four equal works at time 0, one more 1 s later.
		{1, 0, 0xb0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 128, 0, 2},
		// capacity 1: two works, a clear at 1.5 s, a submit at 2 s.
		{0, 0, 0x90, 0, 0, 0xa0, 0, 199, 0, 0, 64, 0x90, 0},
		// capacity 2: zero and negative works beside a running task.
		{2, 0, 0xc0, 0, 0, 0, 0, 8, 0, 1, 0, 0, 2},
	}
	long := []byte{1}
	for i := 0; i < 60; i++ {
		long = append(long, byte(i%4)<<3, 0x70+byte(i%16), byte(i*37))
	}
	seeds = append(seeds, long)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		b := make([]byte, 1+3*(1+rng.Intn(80)))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func TestPSResourceMatchesOracle(t *testing.T) {
	for _, data := range psSeedScripts() {
		checkPSScript(t, data)
	}
}

// FuzzPSResourceMatchesOracle drives PSResource and the oracle, each on its
// own engine, with the same script of timed submits and clears.
func FuzzPSResourceMatchesOracle(f *testing.F) {
	for _, data := range psSeedScripts() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPSScript(t, data)
	})
}

// BenchmarkPSResource holds n tasks active on a capacity-2 resource: every
// completion submits a new task, so each event pops a finish mark and
// pushes one. It reports ns/event for the virtual clock and the oracle.
func BenchmarkPSResource(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	works := make([]float64, 1024)
	for i := range works {
		works[i] = 0.5 + rng.Float64()
	}
	impls := []struct {
		name string
		mk   func(*Engine) psUnderTest
	}{
		{"virtual", func(e *Engine) psUnderTest { return NewPSResource(e, "x", 2) }},
		{"oracle", func(e *Engine) psUnderTest { return newOraclePS(e, "x", 2) }},
	}
	for _, n := range []int{4, 32, 256} {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("active=%d/%s", n, impl.name), func(b *testing.B) {
				eng := NewEngine()
				r := impl.mk(eng)
				next := 0
				var resubmit func()
				resubmit = func() {
					r.Submit(works[next%len(works)], resubmit)
					next++
				}
				for i := 0; i < n; i++ {
					resubmit()
				}
				b.ResetTimer()
				events, _ := eng.Run(b.N) // stops at the budget, with n tasks still active
				b.StopTimer()
				if events > b.N {
					events = b.N
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
