package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negative", []float64{-1, 1}, 0},
		{"many", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"repeated", []float64{5, 5, 5, 1}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.in); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	in := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(in); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(in); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV of constants = %v, want 0", got)
	}
	if got := CV(nil); got != 0 {
		t.Errorf("CV(nil) = %v, want 0", got)
	}
	// Zero mean guards division.
	if got := CV([]float64{-1, 1}); got != 0 {
		t.Errorf("CV with zero mean = %v, want 0", got)
	}
	got := CV([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(got, 2.0/5.0, 1e-12) {
		t.Errorf("CV = %v, want 0.4", got)
	}
}

func TestHarmonic(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{2, 1.5},
		{3, 1.5 + 1.0/3},
		{4, 1.5 + 1.0/3 + 0.25},
	}
	for _, tt := range tests {
		if got := Harmonic(tt.n); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Harmonic(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestHarmonicMonotone(t *testing.T) {
	prev := 0.0
	for n := 1; n < 100; n++ {
		h := Harmonic(n)
		if h <= prev {
			t.Fatalf("Harmonic(%d) = %v not greater than Harmonic(%d) = %v", n, h, n-1, prev)
		}
		prev = h
	}
}

func TestRelError(t *testing.T) {
	tests := []struct {
		est, act, want float64
	}{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{5, 0, 0}, // zero actual guarded
	}
	for _, tt := range tests {
		if got := RelError(tt.est, tt.act); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("RelError(%v,%v) = %v, want %v", tt.est, tt.act, got, tt.want)
		}
	}
}

func TestSignedRelError(t *testing.T) {
	if got := SignedRelError(110, 100); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("overestimate sign: got %v", got)
	}
	if got := SignedRelError(90, 100); !almostEq(got, -0.1, 1e-12) {
		t.Errorf("underestimate sign: got %v", got)
	}
	if got := SignedRelError(1, 0); got != 0 {
		t.Errorf("zero actual: got %v", got)
	}
}

func TestMaxMinSum(t *testing.T) {
	in := []float64{3, -1, 7, 2}
	if got := Max(in); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if got := Min(in); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Sum(in); got != 11 {
		t.Errorf("Sum = %v", got)
	}
	if Max(nil) != 0 || Min(nil) != 0 || Sum(nil) != 0 {
		t.Error("empty-slice results should be 0")
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

// Property: mean is always between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip degenerate inputs
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and scale-quadratic.
func TestVarianceProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e30 {
				return true
			}
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		// Scaling by 2 quadruples the variance.
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 2 * x
		}
		v2 := Variance(scaled)
		return almostEq(v2, 4*v, 1e-6*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: median is between min and max and insensitive to order.
func TestMedianProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip values whose pairwise sums overflow (the even-length
			// median averages two elements).
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		return m >= Min(xs) && m <= Max(xs) && Median(rev) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The helpers below are exercised only by this file: Max and Min are the
// oracles of the property tests, and the rest keep their unit tests.

// Median returns the median of xs (average of the two middle elements for
// even lengths), or 0 for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i.
// Harmonic(0) is 0.
func Harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// RelError returns |estimate-actual|/actual, or 0 when actual is zero.
func RelError(estimate, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(estimate-actual) / actual
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
