package dist

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
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
		// Valid input whose fit is not finite: at cv 1e8 the H₂'s p1 rounds
		// to 1 and its slow rate to 0 (mean NaN); at cv 1e160 cv² overflows
		// (CDF NaN); a subnormal mean overflows the rates of either family.
		{10, 1e8}, {10, 1e160},
		{math.SmallestNonzeroFloat64, 2}, {math.SmallestNonzeroFloat64, 0.5},
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
		lg, _ := math.Lgamma(a)
		for _, x := range []float64{0.01, a / 2, a, 2 * a, 10 * a} {
			p := gammP(a, lg, x, math.Log(x))
			if p < 0 || p > 1+1e-12 {
				t.Errorf("gammP(%v, %v) = %v out of [0,1]", a, x, p)
			}
		}
	}
	if lg, _ := math.Lgamma(3); gammP(3, lg, 0, math.Log(0)) != 0 {
		t.Error("gammP(a, 0) != 0")
	}
}

// The reference implementation of the regularized incomplete gamma, as it
// was before ln Γ(a) and ln x were hoisted out of it: every call computes
// both itself.
func gammPLegacy(a, x float64) float64 {
	if a <= 0 {
		return 1
	}
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		return gammPSeriesLegacy(a, x)
	}
	return 1 - gammQContinuedLegacy(a, x)
}

func gammPSeriesLegacy(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammQContinuedLegacy(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// cdfLegacy is mixedErlang.CDF computed through the reference gamma.
func cdfLegacy(d mixedErlang, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return d.p*gammPLegacy(float64(d.k-1), d.mu*x) + (1-d.p)*gammPLegacy(float64(d.k), d.mu*x)
}

// TestMixedErlangCDFMatchesLegacy checks that the hoisted CDF (ln Γ from a
// table, ln(μx) once per call) gives the reference implementation's bits:
// k = 2 (an exponential branch), the k = 400 clamp and stage counts between,
// from x near 0 through the series and continued-fraction branches into the
// deep tail where the CDF rounds to 1.
func TestMixedErlangCDFMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ks := map[int]bool{}
	var series, continued int
	for _, cv := range []float64{0.99, 0.8, 0.71, 0.6, 0.45, 0.3, 0.2, 0.15, 0.1, 0.06, 0.05, 0.03, 0.01} {
		for _, mean := range []float64{1e-3, 0.5, 30, 1e4} {
			d := MustFit(mean, cv).(mixedErlang)
			ks[d.k] = true
			xs := []float64{-1, 0, math.SmallestNonzeroFloat64, 1e-300, 1e-12 * mean, mean, 1e3 * mean, math.Inf(1)}
			for range 200 {
				// Log-uniform over [1e-8, 1e2] means: both gamma branches
				// and the tail past them.
				xs = append(xs, mean*math.Pow(10, -8+10*rng.Float64()))
			}
			for _, x := range xs {
				got, want := d.CDF(x), cdfLegacy(d, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Fit(%v, %v) = %+v: CDF(%v) = %x, reference %x", mean, cv, d, x, got, want)
				}
				if mx := d.mu * x; mx > 0 && mx < float64(d.k) {
					series++
				} else if mx >= float64(d.k) {
					continued++
				}
			}
		}
	}
	if !ks[2] || !ks[maxErlangStages] {
		t.Errorf("stage counts covered %v, want 2 and %d among them", ks, maxErlangStages)
	}
	if series == 0 || continued == 0 {
		t.Errorf("series branch hit %d times, continued fraction %d times; want both", series, continued)
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

// TestMaxMomentsIndependentOfGOMAXPROCS checks that splitting the grid
// across goroutines changes no bit: every operand pair and each operand's
// identical-operand twin integrate to the same result under GOMAXPROCS 1
// (the serial path), 2, 3 and 8. Odd counts split the grid's 33 blocks
// unevenly.
func TestMaxMomentsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var cases [][]Distribution
	for _, pr := range operandPairs {
		cases = append(cases, []Distribution{pr[0], pr[1]}, []Distribution{pr[0], pr[0]}, []Distribution{pr[1], pr[1]})
	}
	type moments struct{ m, cv float64 }
	want := make([]moments, len(cases))
	runtime.GOMAXPROCS(1)
	for i, ds := range cases {
		m, cv, err := MaxMoments(ds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = moments{m, cv}
	}
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, ds := range cases {
			m, cv, err := MaxMoments(ds)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(m) != math.Float64bits(want[i].m) || math.Float64bits(cv) != math.Float64bits(want[i].cv) {
				t.Errorf("GOMAXPROCS %d, case %d: (%x, %x), serial (%x, %x)", procs, i, m, cv, want[i].m, want[i].cv)
			}
		}
	}
}

// TestMaxMomentsConcurrentCallers runs 8 goroutines integrating the same
// shared operands at once; each must get the serial result. Under -race it
// checks that split integrations share no state but the pooled buffers they
// hand over through the pool.
func TestMaxMomentsConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := make([][]Distribution, len(operandPairs))
	want := make([][2]float64, len(operandPairs))
	for i, pr := range operandPairs {
		cases[i] = []Distribution{pr[0], pr[1]}
		m, cv, err := MaxMoments(cases[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = [2]float64{m, cv}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range cases {
				i := (g + j) % len(cases)
				m, cv, err := MaxMoments(cases[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(m) != math.Float64bits(want[i][0]) || math.Float64bits(cv) != math.Float64bits(want[i][1]) {
					t.Errorf("goroutine %d, pair %d: (%x, %x), want (%x, %x)", g, i, m, cv, want[i][0], want[i][1])
				}
			}
		}()
	}
	wg.Wait()
}
