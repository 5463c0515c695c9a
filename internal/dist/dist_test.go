package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// MustFit is Fit for statically-known parameters; it panics on error.
func MustFit(mean, cv float64) Law {
	d, err := Fit(mean, cv)
	if err != nil {
		panic(err)
	}
	return d
}

// cvOf is d's coefficient of variation (stddev / mean).
func cvOf(d Law) float64 { return math.Sqrt(d.Variance()) / d.Mean() }

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
		almost(t, cvOf(d), tc.cv, 1e-9, "cv")
	}
}

// TestFitBranchesMatchMoments checks that the mixture terms MaxMoments
// reads describe the same law as Mean and Variance.
func TestFitBranchesMatchMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 200 {
		d := randomFit(rng)
		m1, m2 := rawMoments(d.b)
		almost(t, m1, d.Mean(), 1e-12, "branch mean")
		almost(t, m2-m1*m1, d.Variance(), 1e-9, "branch variance")
	}
}

func TestFitCDFShape(t *testing.T) {
	cdf := cdfOf(MustFit(10, 0.4))
	if cdf(-1) != 0 || cdf(0) != 0 {
		t.Error("CDF must vanish at and below zero")
	}
	prev := 0.0
	for x := 0.5; x < 100; x += 0.5 {
		c := cdf(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		prev = c
	}
	if got := cdf(1000); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(1000) = %v, want ~1", got)
	}
	// Median of the fitted distribution brackets the mean region.
	if cdf(10) < 0.3 || cdf(10) > 0.8 {
		t.Errorf("CDF(mean) = %v, implausible", cdf(10))
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{0, 0.5}, {-1, 0.5}, {math.NaN(), 0.5}, {math.Inf(1), 0.5},
		{10, 0}, {10, -0.1}, {10, math.NaN()}, {10, math.Inf(1)},
		// Valid input whose fit is not finite: at cv 1e8 the H₂'s p1 rounds
		// to 1 and its slow rate to 0 (mean NaN); at cv 1e160 cv² overflows
		// (rates NaN); a subnormal mean overflows the rates of either family.
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
	m, cv, err := SumMoments(a, b)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 30, 1e-9, "sum mean")
	wantVar := a.Variance() + b.Variance()
	almost(t, cv, math.Sqrt(wantVar)/30, 1e-9, "sum cv")
}

// TestMaxMomentsExponential checks the max of two independent exponentials
// against E[max] = 1/l1 + 1/l2 - 1/(l1+l2) and
// E[max²] = 2/l1² + 2/l2² - 2/(l1+l2)².
func TestMaxMomentsExponential(t *testing.T) {
	l1, l2 := 1.0/30, 1.0/20
	m, cv, err := MaxMoments(MustFit(30, 1), MustFit(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := 1/l1 + 1/l2 - 1/(l1+l2)
	almost(t, m, want, 1e-12, "max mean")
	m2 := 2/(l1*l1) + 2/(l2*l2) - 2/((l1+l2)*(l1+l2))
	wantCV := math.Sqrt(m2-want*want) / want
	almost(t, cv, wantCV, 1e-12, "max cv")
}

// TestMaxMomentsIIDExponential checks that the max of two i.i.d.
// exponentials of rate λ has mean exactly 1.5/λ, and cv √5/3 (E[max²] is
// 3.5/λ²).
func TestMaxMomentsIIDExponential(t *testing.T) {
	for _, mean := range []float64{1e-3, 1, 20, 3e4} {
		d := MustFit(mean, 1)
		m, cv, err := MaxMoments(d, d)
		if err != nil {
			t.Fatal(err)
		}
		if l := 1 / mean; m != 1.5/l {
			t.Errorf("mean %v: E[max] = %x, want 1.5/λ = %x", mean, m, 1.5/l)
		}
		almost(t, cv, math.Sqrt(5)/3, 1e-15, "iid max cv")
	}
}

func TestMaxMomentsDominance(t *testing.T) {
	// Max of near-deterministic variables is near the largest mean.
	m, _, err := MaxMoments(MustFit(10, 0.05), MustFit(40, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 40, 0.02, "dominant max mean")

	// Operands 1e600 apart: in units of the slow rate, the fast fit's rates
	// are +Inf.
	fast, slow := MustFit(1e-300, 0.5), MustFit(1e300, 2)
	m, cv, err := MaxMoments(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, slow.Mean(), 1e-15, "dominant max mean")
	almost(t, cv, cvOf(slow), 1e-12, "dominant max cv")
}

// TestMaxMomentsBounds checks max(E[X], E[Y]) ≤ E[max] ≤ E[X] + E[Y] over
// randomized fits.
func TestMaxMomentsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for range 2000 {
		a, b := randomFit(rng), randomFit(rng)
		m, cv, err := MaxMoments(a, b)
		if err != nil {
			t.Fatalf("MaxMoments(%+v, %+v): %v", a, b, err)
		}
		checkMaxMoments(t, a, b, m, cv)
	}
}

// TestMaxMomentsScaleInvariant checks that rescaling time by 1e±300 scales
// the max mean alike and leaves its cv: the moments are computed in units
// of the slowest rate, so neither the rate sums nor the squared moments
// leave the floating-point range.
func TestMaxMomentsScaleInvariant(t *testing.T) {
	for i, pr := range append(randomPairs(6, 200), operandPairs...) {
		a, b := pr[0], pr[1]
		m, cv, err := MaxMoments(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{1e-300, 1e300} {
			sa := MustFit(a.Mean()*s, cvOf(a))
			sb := MustFit(b.Mean()*s, cvOf(b))
			sm, scv, err := MaxMoments(sa, sb)
			if err != nil {
				t.Fatalf("pair %d scaled by %v: %v", i, s, err)
			}
			almost(t, sm, m*s, 1e-12, "scaled max mean")
			almost(t, scv, cv, 1e-9, "scaled max cv")
		}
	}
}

// checkMaxMoments fails unless mean and cv are finite, the cv nonnegative,
// and max(E[a], E[b]) ≤ mean ≤ E[a] + E[b] to within rounding.
func checkMaxMoments(t *testing.T, a, b Law, mean, cv float64) {
	t.Helper()
	if !finitePositive(mean) || math.IsNaN(cv) || math.IsInf(cv, 0) || cv < 0 {
		t.Fatalf("max(%+v, %+v) = (%v, %v): want finite positive mean and finite cv ≥ 0", a, b, mean, cv)
	}
	const slack = 1e-12
	lo, hi := math.Max(a.Mean(), b.Mean()), a.Mean()+b.Mean()
	if mean < lo*(1-slack) || mean > hi*(1+slack) {
		t.Fatalf("max(%+v, %+v): mean %v outside [%v, %v]", a, b, mean, lo, hi)
	}
}

// operandPairs spans the fitted shapes the Tripathi estimator combines:
// Erlang mixtures of several stage counts, the exponential and H₂.
var operandPairs = [][2]Law{
	{MustFit(30, 0.2), MustFit(25, 0.4)},   // Erlang mixture × Erlang mixture
	{MustFit(30, 0.15), MustFit(31, 0.15)}, // near-equal low-cv mixtures
	{MustFit(12, 0.3), MustFit(40, 1.6)},   // Erlang mixture × H₂
	{MustFit(20, 1.2), MustFit(18, 2.5)},   // H₂ × H₂
	{MustFit(20, 1), MustFit(0.5, 0.05)},   // exponential × sharp mixture
	{MustFit(30, 0.2), MustFit(30, 0.2)},   // one fit twice
}

// randomFit draws a fit with mean log-uniform over four decades, [1, 1e4],
// and cv log-uniform over [0.02, 4]: Erlang mixtures from k = 2 to the
// k = 400 clamp (every cv below 0.05), the exponential and H₂.
func randomFit(rng *rand.Rand) Law {
	return MustFit(math.Pow(10, 4*rng.Float64()), 0.02*math.Pow(200, rng.Float64()))
}

// randomPairs returns n random operand pairs, a fifth of them one fit
// twice.
func randomPairs(seed int64, n int) [][2]Law {
	rng := rand.New(rand.NewSource(seed))
	prs := make([][2]Law, n)
	for i := range prs {
		a := randomFit(rng)
		if i%5 == 0 {
			prs[i] = [2]Law{a, a}
		} else {
			prs[i] = [2]Law{a, randomFit(rng)}
		}
	}
	return prs
}

// TestMaxMomentsSymmetricBits pins max(a, b) and max(b, a) to the same bits,
// which is what lets a memo key operand pairs unordered.
func TestMaxMomentsSymmetricBits(t *testing.T) {
	for i, pr := range append(randomPairs(5, 1000), operandPairs...) {
		m1, cv1, err1 := MaxMoments(pr[0], pr[1])
		m2, cv2, err2 := MaxMoments(pr[1], pr[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("pair %d: %v / %v", i, err1, err2)
		}
		if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(cv1) != math.Float64bits(cv2) {
			t.Errorf("pair %d %+v: max(a,b) = (%x, %x), max(b,a) = (%x, %x)", i, pr, m1, cv1, m2, cv2)
		}
	}
}

// TestMaxMomentsMatchesOracle checks the closed form against numeric
// integration of the fitted CDFs over randomized pairs that cover k = 2,
// the k = 400 clamp, H₂ up to cv 4 and means four decades apart.
func TestMaxMomentsMatchesOracle(t *testing.T) {
	prs := append(randomPairs(1, 240), operandPairs...)
	// The extremes, so that coverage does not hang on the draw.
	prs = append(prs,
		[2]Law{MustFit(1, 0.03), MustFit(1e4, 4)},
		[2]Law{MustFit(1e4, 0.03), MustFit(1, 4)},
		[2]Law{MustFit(1e4, 0.03), MustFit(1e4, 0.8)},
		[2]Law{MustFit(1, 0.8), MustFit(1.2, 4)},
	)
	var stages [maxErlangStages + 1]bool
	var maxCV, minMean, maxMean float64 = 0, math.Inf(1), 0
	for i, pr := range prs {
		for _, d := range pr {
			if !d.hyperExp() {
				stages[d.b[1].stages] = true
			}
			maxCV = math.Max(maxCV, cvOf(d))
			minMean, maxMean = math.Min(minMean, d.Mean()), math.Max(maxMean, d.Mean())
		}
		m, cv, err := MaxMoments(pr[0], pr[1])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		wm, wcv := oracleMaxMoments(pr[0], pr[1])
		if math.Abs(m-wm) > 1e-9*wm || math.Abs(cv-wcv) > 1e-8*wcv {
			t.Errorf("pair %d %+v: closed form (%v, %v), oracle (%v, %v)", i, pr, m, cv, wm, wcv)
		}
	}
	if !stages[2] || !stages[maxErlangStages] || maxCV < 3.99 || maxMean/minMean < 9.9e3 {
		t.Errorf("coverage: k = 2 %v, k = %d %v, max cv %v, means %v..%v",
			stages[2], maxErlangStages, stages[maxErlangStages], maxCV, minMean, maxMean)
	}
}

// oracleMaxSteps is the oracle's Simpson step count.
const oracleMaxSteps = 1 << 14

// oracleMaxMoments integrates E[max] = ∫ (1 − F_a·F_b) dx and
// E[max²] = ∫ 2x·(1 − F_a·F_b) dx by Simpson's rule, the method that
// computed P-node maxima before the closed form, on a finer grid that is
// uniform in ln x: from 1e-6 of the smaller mean, below which the tail is 1
// to within 1e-11, to where it falls under 1e-15.
func oracleMaxMoments(a, b Law) (mean, cv float64) {
	fa, fb := cdfOf(a), cdfOf(b)
	tail := func(x float64) float64 { return 1 - fa(x)*fb(x) }
	lo := 1e-6 * math.Min(a.Mean(), b.Mean())
	hi := math.Max(a.Mean()+12*math.Sqrt(a.Variance()), b.Mean()+12*math.Sqrt(b.Variance()))
	for i := 0; i < 60 && tail(hi) > 1e-15; i++ {
		hi *= 2
	}
	u0 := math.Log(lo)
	h := (math.Log(hi) - u0) / oracleMaxSteps
	var s1, s2 float64
	for i := 0; i <= oracleMaxSteps; i++ {
		w := 2.0
		switch {
		case i == 0 || i == oracleMaxSteps:
			w = 1
		case i%2 == 1:
			w = 4
		}
		// dx = x du
		x := math.Exp(u0 + float64(i)*h)
		f := w * tail(x) * x
		s1 += f
		s2 += f * 2 * x
	}
	m1 := lo + s1*h/3 // ∫₀^lo of a tail of 1
	m2 := lo*lo + s2*h/3
	return m1, math.Sqrt(m2-m1*m1) / m1
}

// cdfOf returns the CDF of a fit, P(X ≤ x) = Σ weight·P(stages, rate·x):
// Erlang(n, λ) has the regularized lower incomplete gamma P(n, λx) as its
// CDF.
func cdfOf(d Law) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		var c float64
		for _, b := range d.b {
			c += b.weight * gammP(float64(b.stages), b.rate*x)
		}
		return c
	}
}

// gammP is the regularized lower incomplete gamma function P(a, x) for
// a ≥ 1 and x > 0, following the series / continued-fraction split of
// Numerical Recipes.
func gammP(a, x float64) float64 {
	if x < a+1 {
		return gammPSeries(a, x)
	}
	return 1 - gammQContinued(a, x)
}

func gammPSeries(a, x float64) float64 {
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

func gammQContinued(a, x float64) float64 {
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

// FuzzFitMax fits two (mean, cv) pairs and, when both fits succeed,
// requires MaxMoments to return an error or a finite positive mean and a
// finite cv ≥ 0 within max(E[a], E[b]) ≤ mean ≤ E[a] + E[b]. Never NaN:
// not when the rates sum past MaxFloat64, nor when they are 1e600 apart.
// Both argument orders must give the same bits, or the same refusal: the
// Tripathi memo keys operand pairs unordered.
func FuzzFitMax(f *testing.F) {
	f.Add(30.0, 0.2, 25.0, 0.4)
	f.Add(1.0, 0.03, 1e4, 4.0)
	f.Add(20.0, 1.0, 20.0, 1.0)
	f.Add(5e-306, 0.03, 5e-306, 0.03) // rates near MaxFloat64; their sum overflows
	f.Add(1e-300, 0.5, 1e300, 2.0)
	f.Add(1e308, 0.9, 1.7e308, 0.9) // the max mean itself overflows
	f.Add(1.0, 1e4, 1.0, 0.01)
	f.Fuzz(func(t *testing.T, mean, cv, mean2, cv2 float64) {
		a, err := Fit(mean, cv)
		if err != nil {
			return
		}
		b, err := Fit(mean2, cv2)
		if err != nil {
			return
		}
		m, c, err := MaxMoments(a, b)
		m2, c2, err2 := MaxMoments(b, a)
		if (err == nil) != (err2 == nil) || math.Float64bits(m) != math.Float64bits(m2) || math.Float64bits(c) != math.Float64bits(c2) {
			t.Fatalf("max(%+v, %+v) = (%x, %x, %v), max(b, a) = (%x, %x, %v)", a, b, m, c, err, m2, c2, err2)
		}
		if err != nil {
			return
		}
		checkMaxMoments(t, a, b, m, c)
	})
}

// TestMaxMomentsConcurrentCallers runs 8 goroutines solving the same shared
// operands at once; each must get the serial result. Under -race it checks
// that MaxMoments shares no state between callers.
func TestMaxMomentsConcurrentCallers(t *testing.T) {
	want := make([][2]float64, len(operandPairs))
	for i, pr := range operandPairs {
		m, cv, err := MaxMoments(pr[0], pr[1])
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
			for j := range operandPairs {
				i := (g + j) % len(operandPairs)
				m, cv, err := MaxMoments(operandPairs[i][0], operandPairs[i][1])
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
