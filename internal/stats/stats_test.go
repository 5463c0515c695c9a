package stats

import (
	"math"
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

func TestMaxMin(t *testing.T) {
	in := []float64{3, -1, 7, 2}
	if got := Max(in); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if got := Min(in); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice results should be 0")
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

// Max and Min below are test-only: the oracles of the property tests.

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
