// Package dist implements the moment algebra behind the Tripathi tree
// estimator (paper §4.2.4, citing Tripathi et al. [12]): task and subtree
// response times are fitted as phase-type distributions by their first two
// moments (mean, coefficient of variation), and S/P tree operators compose
// them — S nodes sum independent children, P nodes take their maximum.
//
// Fitting follows the classical two-moment recipe:
//
//   - cv² < 1  → mixture of Erlang(k-1) and Erlang(k) with a common rate,
//     where 1/k ≤ cv² ≤ 1/(k-1) (matches both moments exactly);
//   - cv² = 1  → exponential (the degenerate case of both branches);
//   - cv² > 1  → two-phase hyperexponential H₂ with balanced means.
//
// Sum moments are analytic (means and variances add for independent terms).
// Max moments have no closed form for general phase-type inputs, so they are
// integrated numerically from E[maxⁿ] = ∫ n·xⁿ⁻¹·(1-∏ᵢFᵢ(x)) dx.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// Distribution is a nonnegative random variable known through its CDF and
// first two moments.
type Distribution interface {
	Mean() float64
	Variance() float64
	// CV is the coefficient of variation (stddev / mean).
	CV() float64
	// CDF evaluates P(X <= x).
	CDF(x float64) float64
}

// maxErlangStages bounds the Erlang stage count of a fit. A requested cv
// below 1/sqrt(maxErlangStages) is clamped (the fitted cv is then slightly
// larger than requested); the model's leaf CVs (≥ 0.05 in practice) never
// reach the clamp.
const maxErlangStages = 400

// Fit returns a phase-type distribution matching the given mean and
// coefficient of variation.
func Fit(mean, cv float64) (Distribution, error) {
	switch {
	case math.IsNaN(mean) || math.IsInf(mean, 0) || mean <= 0:
		return nil, fmt.Errorf("dist: mean must be positive and finite, got %v", mean)
	case math.IsNaN(cv) || math.IsInf(cv, 0) || cv <= 0:
		return nil, fmt.Errorf("dist: cv must be positive and finite, got %v", cv)
	}
	cv2 := cv * cv
	if cv2 >= 1 {
		// Balanced-means H₂ (Morse): p₁/λ₁ = p₂/λ₂.
		p1 := 0.5 * (1 + math.Sqrt((cv2-1)/(cv2+1)))
		return hyperExp2{
			p1: p1,
			l1: 2 * p1 / mean,
			l2: 2 * (1 - p1) / mean,
		}, nil
	}
	k := int(math.Ceil(1 / cv2))
	if k > maxErlangStages {
		k = maxErlangStages
		cv2 = 1 / float64(k)
	}
	if k < 2 {
		k = 2 // cv2 in (1/2, 1): mixture of Erlang-1 (exponential) and Erlang-2
	}
	// Mixed Erlang(k-1)/Erlang(k), common rate mu, probability p of the
	// shorter branch (Tijms, "Stochastic Models", §A.2).
	fk := float64(k)
	p := (fk*cv2 - math.Sqrt(fk*(1+cv2)-fk*fk*cv2)) / (1 + cv2)
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	mu := (fk - p) / mean
	return mixedErlang{k: k, p: p, mu: mu}, nil
}

// MustFit is Fit for statically-known parameters; it panics on error.
func MustFit(mean, cv float64) Distribution {
	d, err := Fit(mean, cv)
	if err != nil {
		panic(err)
	}
	return d
}

// mixedErlang draws Erlang(k-1, mu) with probability p, else Erlang(k, mu).
type mixedErlang struct {
	k  int
	p  float64
	mu float64
}

func (d mixedErlang) Mean() float64 {
	return (d.p*float64(d.k-1) + (1-d.p)*float64(d.k)) / d.mu
}

func (d mixedErlang) Variance() float64 {
	// E[X²] of Erlang(n, mu) is n(n+1)/mu².
	k := float64(d.k)
	m2 := (d.p*(k-1)*k + (1-d.p)*k*(k+1)) / (d.mu * d.mu)
	m := d.Mean()
	return m2 - m*m
}

func (d mixedErlang) CV() float64 {
	m := d.Mean()
	return math.Sqrt(d.Variance()) / m
}

func (d mixedErlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Erlang(n, mu) CDF is the regularized lower incomplete gamma P(n, mu·x).
	return d.p*gammP(float64(d.k-1), d.mu*x) + (1-d.p)*gammP(float64(d.k), d.mu*x)
}

// hyperExp2 is a two-phase hyperexponential: exp(l1) w.p. p1, exp(l2) w.p.
// 1-p1.
type hyperExp2 struct {
	p1, l1, l2 float64
}

func (d hyperExp2) Mean() float64 { return d.p1/d.l1 + (1-d.p1)/d.l2 }

func (d hyperExp2) Variance() float64 {
	m2 := 2*d.p1/(d.l1*d.l1) + 2*(1-d.p1)/(d.l2*d.l2)
	m := d.Mean()
	return m2 - m*m
}

func (d hyperExp2) CV() float64 { return math.Sqrt(d.Variance()) / d.Mean() }

func (d hyperExp2) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - d.p1*math.Exp(-d.l1*x) - (1-d.p1)*math.Exp(-d.l2*x)
}

// SumMoments returns the mean and cv of the sum of independent variables.
func SumMoments(ds []Distribution) (mean, cv float64, err error) {
	if len(ds) == 0 {
		return 0, 0, errors.New("dist: SumMoments of no distributions")
	}
	var m, v float64
	for _, d := range ds {
		m += d.Mean()
		v += d.Variance()
	}
	if m <= 0 {
		return 0, 0, errors.New("dist: sum has nonpositive mean")
	}
	return m, math.Sqrt(v) / m, nil
}

// MaxMoments returns the mean and cv of the maximum of independent
// variables, by numeric integration of the tail of the product CDF.
func MaxMoments(ds []Distribution) (mean, cv float64, err error) {
	if len(ds) == 0 {
		return 0, 0, errors.New("dist: MaxMoments of no distributions")
	}
	// Upper integration bound: past the largest mean + 12 sigma the joint
	// tail is negligible; extend it while the tail is still visible.
	upper := 0.0
	for _, d := range ds {
		if u := d.Mean() + 12*math.Sqrt(d.Variance()); u > upper {
			upper = u
		}
	}
	tail := func(x float64) float64 {
		prod := 1.0
		for _, d := range ds {
			prod *= d.CDF(x)
			if prod == 0 {
				break
			}
		}
		return 1 - prod
	}
	if len(ds) == 2 && identical(ds[0], ds[1]) {
		// max(X, X') of i.i.d. operands: one CDF evaluation per point. 1·c·c
		// is c·c exactly, and c == 0 gives 1 on both paths, so the result is
		// bit-identical to the general loop at half the cost.
		d := ds[0]
		tail = func(x float64) float64 {
			c := d.CDF(x)
			return 1 - c*c
		}
	}
	for i := 0; i < 30 && tail(upper) > 1e-10; i++ {
		upper *= 2
	}

	// Simpson integration of E[max] = ∫ tail and E[max²] = ∫ 2x·tail.
	const steps = 2048 // even
	h := upper / steps
	var m1, m2 float64
	for i := 0; i <= steps; i++ {
		x := float64(i) * h
		w := 2.0
		switch {
		case i == 0 || i == steps:
			w = 1
		case i%2 == 1:
			w = 4
		}
		t := tail(x)
		m1 += w * t
		m2 += w * 2 * x * t
	}
	m1 *= h / 3
	m2 *= h / 3
	if m1 <= 0 {
		return 0, 0, errors.New("dist: max has nonpositive mean")
	}
	v := m2 - m1*m1
	if v < 0 {
		v = 0 // numeric jitter for near-deterministic inputs
	}
	return m1, math.Sqrt(v) / m1, nil
}

// identical reports whether a and b are the same fitted distribution. Only
// the package's own (comparable) types are compared, so a caller-defined
// Distribution — possibly not comparable — is never identical to anything.
func identical(a, b Distribution) bool {
	switch x := a.(type) {
	case mixedErlang:
		y, ok := b.(mixedErlang)
		return ok && x == y
	case hyperExp2:
		y, ok := b.(hyperExp2)
		return ok && x == y
	}
	return false
}

// gammP is the regularized lower incomplete gamma function P(a, x),
// following the series / continued-fraction split of Numerical Recipes.
func gammP(a, x float64) float64 {
	if a <= 0 {
		// Erlang with zero stages is a point mass at 0.
		return 1
	}
	if x <= 0 {
		return 0
	}
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
