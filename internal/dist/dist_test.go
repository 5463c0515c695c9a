package dist

import (
	"math"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestFitRecoversMoments(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{30, 0.15},  // low-cv Erlang mixture
		{30, 0.5},   // mid-cv Erlang mixture
		{30, 0.95},  // near-exponential from below
		{30, 1.0},   // exponential
		{30, 1.8},   // hyperexponential
		{0.5, 0.3},  // sub-second mean
		{1e4, 0.12}, // large mean, default leaf CV
	} {
		d, err := Fit(tc.mean, tc.cv)
		if err != nil {
			t.Fatalf("Fit(%v, %v): %v", tc.mean, tc.cv, err)
		}
		almost(t, d.Mean(), tc.mean, 1e-9, "mean")
		almost(t, d.CV(), tc.cv, 1e-9, "cv")
	}
}

func TestFitCDFShape(t *testing.T) {
	d := MustFit(10, 0.4)
	if d.CDF(-1) != 0 || d.CDF(0) != 0 {
		t.Error("CDF must vanish at and below zero")
	}
	prev := 0.0
	for x := 0.5; x < 100; x += 0.5 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		prev = c
	}
	if got := d.CDF(1000); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(1000) = %v, want ~1", got)
	}
	// Median of the fitted distribution brackets the mean region.
	if d.CDF(10) < 0.3 || d.CDF(10) > 0.8 {
		t.Errorf("CDF(mean) = %v, implausible", d.CDF(10))
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{0, 0.5}, {-1, 0.5}, {math.NaN(), 0.5}, {math.Inf(1), 0.5},
		{10, 0}, {10, -0.1}, {10, math.NaN()}, {10, math.Inf(1)},
	} {
		if _, err := Fit(tc.mean, tc.cv); err == nil {
			t.Errorf("Fit(%v, %v): expected error", tc.mean, tc.cv)
		}
	}
}

func TestMustFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFit(0, 0) did not panic")
		}
	}()
	MustFit(0, 0)
}

func TestSumMoments(t *testing.T) {
	a := MustFit(10, 0.3)
	b := MustFit(20, 0.6)
	m, cv, err := SumMoments([]Distribution{a, b})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 30, 1e-9, "sum mean")
	wantVar := a.Variance() + b.Variance()
	almost(t, cv, math.Sqrt(wantVar)/30, 1e-9, "sum cv")

	if _, _, err := SumMoments(nil); err == nil {
		t.Error("empty sum accepted")
	}
}

// TestMaxMomentsExponential checks the numeric integration against the
// closed form for two independent exponentials:
// E[max] = 1/l1 + 1/l2 - 1/(l1+l2).
func TestMaxMomentsExponential(t *testing.T) {
	l1, l2 := 1.0/30, 1.0/20
	a := MustFit(30, 1)
	b := MustFit(20, 1)
	m, cv, err := MaxMoments([]Distribution{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := 1/l1 + 1/l2 - 1/(l1+l2)
	almost(t, m, want, 1e-3, "max mean")
	// E[max²] = 2/l1² + 2/l2² - 2/(l1+l2)².
	m2 := 2/(l1*l1) + 2/(l2*l2) - 2/((l1+l2)*(l1+l2))
	wantCV := math.Sqrt(m2-want*want) / want
	almost(t, cv, wantCV, 1e-2, "max cv")
}

func TestMaxMomentsDominance(t *testing.T) {
	// Max of near-deterministic variables is near the largest mean.
	a := MustFit(10, 0.05)
	b := MustFit(40, 0.05)
	m, _, err := MaxMoments([]Distribution{a, b})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 40, 0.02, "dominant max mean")

	if _, _, err := MaxMoments(nil); err == nil {
		t.Error("empty max accepted")
	}
}

func TestGammPIsAProbability(t *testing.T) {
	for _, a := range []float64{1, 2, 45, 399} {
		for _, x := range []float64{0.01, a / 2, a, 2 * a, 10 * a} {
			p := gammP(a, x)
			if p < 0 || p > 1+1e-12 {
				t.Errorf("gammP(%v, %v) = %v out of [0,1]", a, x, p)
			}
		}
	}
	if gammP(3, 0) != 0 {
		t.Error("gammP(a, 0) != 0")
	}
}

// operandPairs spans the fitted shapes the Tripathi estimator combines:
// Erlang mixtures of several stage counts, the exponential and H₂.
var operandPairs = [][2]Distribution{
	{MustFit(30, 0.2), MustFit(25, 0.4)},   // Erlang mixture × Erlang mixture
	{MustFit(30, 0.15), MustFit(31, 0.15)}, // near-equal low-cv mixtures
	{MustFit(12, 0.3), MustFit(40, 1.6)},   // Erlang mixture × H₂
	{MustFit(20, 1.2), MustFit(18, 2.5)},   // H₂ × H₂
	{MustFit(20, 1), MustFit(0.5, 0.05)},   // exponential × sharp mixture
}

// TestMaxMomentsSymmetricBits pins max(a, b) and max(b, a) to the same bits:
// the integration bound is a max and the tail product 1·c₁·c₂ commutes
// exactly, which is what lets a memo key operand pairs unordered.
func TestMaxMomentsSymmetricBits(t *testing.T) {
	for i, pr := range operandPairs {
		m1, cv1, err1 := MaxMoments([]Distribution{pr[0], pr[1]})
		m2, cv2, err2 := MaxMoments([]Distribution{pr[1], pr[0]})
		if err1 != nil || err2 != nil {
			t.Fatalf("pair %d: %v / %v", i, err1, err2)
		}
		if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(cv1) != math.Float64bits(cv2) {
			t.Errorf("pair %d: max(a,b) = (%x, %x), max(b,a) = (%x, %x)", i, m1, cv1, m2, cv2)
		}
	}
}

// opaque hides a distribution's type from MaxMoments, forcing the general
// product loop even for identical operands.
type opaque struct{ Distribution }

// noncomparable is a caller-defined Distribution whose dynamic type cannot
// be compared with ==.
type noncomparable struct {
	Distribution
	tags []string
}

// TestMaxMomentsIdenticalOperands checks that the identical-operand path
// (one CDF evaluation per grid point) gives the general loop's bits, and
// that a non-comparable caller type passed twice takes the general loop
// without panicking.
func TestMaxMomentsIdenticalOperands(t *testing.T) {
	for i, pr := range operandPairs {
		for j, d := range pr {
			fm, fcv, err := MaxMoments([]Distribution{d, d})
			if err != nil {
				t.Fatal(err)
			}
			gm, gcv, err := MaxMoments([]Distribution{d, opaque{d}})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fm) != math.Float64bits(gm) || math.Float64bits(fcv) != math.Float64bits(gcv) {
				t.Errorf("pair %d operand %d: identical path (%x, %x), general loop (%x, %x)", i, j, fm, fcv, gm, gcv)
			}
			nc := noncomparable{Distribution: d, tags: []string{"caller"}}
			nm, ncv, err := MaxMoments([]Distribution{nc, nc})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(nm) != math.Float64bits(gm) || math.Float64bits(ncv) != math.Float64bits(gcv) {
				t.Errorf("pair %d operand %d: non-comparable (%x, %x), general loop (%x, %x)", i, j, nm, ncv, gm, gcv)
			}
		}
	}
	if !identical(MustFit(30, 0.2), MustFit(30, 0.2)) {
		t.Error("equal fits not recognized as identical")
	}
	if identical(MustFit(30, 0.2), MustFit(30, 0.21)) || identical(MustFit(30, 1.5), MustFit(30, 0.5)) {
		t.Error("different fits reported identical")
	}
}
