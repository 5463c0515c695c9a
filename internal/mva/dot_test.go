package mva

import (
	"math"
	"math/rand"
	"testing"
)

// checkDotRows runs dotRows and dotRowsGo on the same input and requires
// the same bits in every output. Outputs past len(rows) must stay untouched.
func checkDotRows(t *testing.T, w []float64, n int, x []float64, rows []int32) {
	t.Helper()
	const guard = 12345.678
	got := make([]float64, len(rows)+1)
	want := make([]float64, len(rows)+1)
	got[len(rows)], want[len(rows)] = guard, guard
	dotRows(w, n, x, rows, got)
	dotRowsGo(w, n, x, rows, want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d rows=%v: out[%d] = %v (%#x), portable %v (%#x)",
				n, rows, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// dotSource decodes a dotRows input from fuzz bytes: the task count n
// (0..130), the number of weight rows and of listed rows (0..18, so most
// counts are not multiples of 4), the row indices, and then the weights
// and x values two bytes each. Values are zeros, signed zeros, small
// dyadic numbers or wide magnitudes from subnormal to near overflow, so
// sums overflow to ±Inf and cancel to NaN. Once the bytes run out, a
// generator seeded by them supplies the rest. No input is NaN: a NaN's
// payload survives an add on either operand order, which the scalar code
// does not pin.
type dotSource struct {
	data []byte
	pos  int
	rng  *rand.Rand
}

func newDotSource(data []byte) *dotSource {
	var seed int64 = 1
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	return &dotSource{data: data, rng: rand.New(rand.NewSource(seed))}
}

func (d *dotSource) byte() byte {
	if d.pos < len(d.data) {
		d.pos++
		return d.data[d.pos-1]
	}
	return byte(d.rng.Intn(256))
}

func (d *dotSource) value() float64 {
	kind, b := d.byte(), d.byte()
	switch kind % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2, 3:
		return float64(int(b)-128) / 8
	default:
		// Any finite binary exponent, mantissa from the generator.
		exp := uint64(b)<<3 | uint64(kind>>5)
		if exp == 0x7ff {
			exp = 0x7fe
		}
		bits := uint64(kind&8)<<60 | exp<<52 | d.rng.Uint64()>>12
		return math.Float64frombits(bits)
	}
}

func (d *dotSource) input() (w []float64, n int, x []float64, rows []int32) {
	n = int(d.byte()) % 131
	m := 1 + int(d.byte())%9
	rows = make([]int32, int(d.byte())%19)
	for t := range rows {
		rows[t] = int32(int(d.byte()) % m)
	}
	w = make([]float64, m*n)
	for i := range w {
		w[i] = d.value()
	}
	x = make([]float64, n)
	for j := range x {
		x[j] = d.value()
	}
	return w, n, x, rows
}

// The kernel gives the portable loop's bits on every n from 0 through 130
// — even and odd, below and above one pair — and on row counts that leave
// a one-row tail of every length, with rows repeated and out of order.
func TestDotRowsMatchesPortable(t *testing.T) {
	src := newDotSource(nil) // no bytes: every value comes from its generator
	for n := 0; n <= 130; n++ {
		for nrows := 0; nrows <= 9; nrows++ {
			m := 1 + src.rng.Intn(9)
			w := make([]float64, m*n)
			for i := range w {
				w[i] = src.value()
			}
			x := make([]float64, n)
			for j := range x {
				x[j] = src.value()
			}
			rows := make([]int32, nrows)
			for i := range rows {
				rows[i] = int32(src.rng.Intn(m))
			}
			checkDotRows(t, w, n, x, rows)
		}
	}
}

// The kernel's sums are the even/odd walk's, not a plain left-to-right
// sum: with x = 1 and weights (1, 2⁵³, 1, −2⁵³) the lanes hold 1+1 = 2 and
// 2⁵³−2⁵³ = 0, where one accumulator would round 2⁵³+1 and lose a unit.
func TestDotRowsEvenOddOrder(t *testing.T) {
	w := []float64{1, 1 << 53, 1, -(1 << 53)}
	x := []float64{1, 1, 1, 1}
	out := make([]float64, 1)
	dotRows(w, 4, x, []int32{0}, out)
	if out[0] != 2 {
		t.Fatalf("dotRows = %v, want 2 (even lane 1+1, odd lane 2⁵³−2⁵³)", out[0])
	}
}

// FuzzDotRows holds the kernel to the portable loop bit for bit.
func FuzzDotRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0})                       // n=1: the odd term alone
	f.Add([]byte{4, 3, 7, 0, 1, 2, 3, 0, 1, 2})     // n=4, seven rows: one pass and a 3-row tail
	f.Add([]byte{129, 8, 18, 5, 4, 3, 2, 1, 0, 8})  // n=129, 18 rows
	f.Add([]byte{130, 0, 4, 0, 0, 0, 0, 4, 255, 5}) // n=130, one row four times, a wide first weight
	f.Fuzz(func(t *testing.T, data []byte) {
		w, n, x, rows := newDotSource(data).input()
		checkDotRows(t, w, n, x, rows)
	})
}
