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
// Either way a fit is a two-term mixture of Erlang laws, held as one
// comparable value (Law) that allocates nothing and can key a map, and
// both operators have closed forms. Sum moments add (means and variances
// of independent terms). Max moments follow from
// E[maxʳ] = E[Xʳ] + E[Yʳ] − E[minʳ], where the minimum of two Erlang laws
// is the N-th event of their merged Poisson process and N has a finite
// distribution (see MaxMoments).
package dist

import (
	"errors"
	"fmt"
	"math"
)

// Law is a nonnegative random variable fitted by Fit: a two-term mixture
// of Erlang laws, known through its first two moments. It is a comparable
// value, so fits can key a map. The stage counts tell the two fitted
// families apart: an H₂ has stages (1, 1), and a mixed Erlang (k−1, k) with
// a common rate, k ≥ 2.
type Law struct {
	b [2]branch
}

// branch is one mixture term: Erlang(stages, rate) with probability weight.
type branch struct {
	weight float64
	stages int
	rate   float64
}

// maxErlangStages bounds the Erlang stage count of a fit. A requested cv
// below 1/sqrt(maxErlangStages) is clamped (the fitted cv is then slightly
// larger than requested); the model's leaf CVs (≥ 0.05 in practice) never
// reach the clamp.
const maxErlangStages = 400

// Fit returns a phase-type distribution matching the given mean and
// coefficient of variation. It fails when the fitted parameters would not
// be finite and positive: a cv so large that the H₂'s slow branch vanishes
// in floating point, or a mean so small that the rates overflow.
func Fit(mean, cv float64) (Law, error) {
	switch {
	case math.IsNaN(mean) || math.IsInf(mean, 0) || mean <= 0:
		return Law{}, fmt.Errorf("dist: mean must be positive and finite, got %v", mean)
	case math.IsNaN(cv) || math.IsInf(cv, 0) || cv <= 0:
		return Law{}, fmt.Errorf("dist: cv must be positive and finite, got %v", cv)
	}
	cv2 := cv * cv
	if cv2 >= 1 {
		// Balanced-means H₂ (Morse): p₁/λ₁ = p₂/λ₂.
		p1 := 0.5 * (1 + math.Sqrt((cv2-1)/(cv2+1)))
		l1, l2 := 2*p1/mean, 2*(1-p1)/mean
		if !finitePositive(l1) || !finitePositive(l2) {
			return Law{}, fmt.Errorf("dist: no finite hyperexponential fits mean %v, cv %v", mean, cv)
		}
		return Law{[2]branch{{p1, 1, l1}, {1 - p1, 1, l2}}}, nil
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
	if !finitePositive(mu) {
		return Law{}, fmt.Errorf("dist: no finite Erlang mixture fits mean %v, cv %v", mean, cv)
	}
	return Law{[2]branch{{p, k - 1, mu}, {1 - p, k, mu}}}, nil
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// hyperExp reports whether d is an H₂ rather than a mixed Erlang.
func (d Law) hyperExp() bool { return d.b[1].stages == 1 }

// Mean returns E[X].
func (d Law) Mean() float64 {
	x, y := d.b[0], d.b[1]
	if d.hyperExp() {
		return x.weight/x.rate + y.weight/y.rate
	}
	return (x.weight*float64(x.stages) + y.weight*float64(y.stages)) / x.rate
}

// Variance returns E[X²] − E[X]².
func (d Law) Variance() float64 {
	x, y := d.b[0], d.b[1]
	var m2 float64
	if d.hyperExp() {
		m2 = 2*x.weight/(x.rate*x.rate) + 2*y.weight/(y.rate*y.rate)
	} else {
		// E[X²] of Erlang(n, mu) is n(n+1)/mu².
		k := float64(y.stages)
		m2 = (x.weight*(k-1)*k + y.weight*k*(k+1)) / (x.rate * x.rate)
	}
	m := d.Mean()
	return m2 - m*m
}

// SumMoments returns the mean and cv of a + b for independent a and b.
func SumMoments(a, b Law) (mean, cv float64, err error) {
	m := a.Mean() + b.Mean()
	if m <= 0 {
		return 0, 0, errors.New("dist: sum has nonpositive mean")
	}
	return m, math.Sqrt(a.Variance()+b.Variance()) / m, nil
}

// MaxMoments returns the mean and cv of max(a, b) for independent a and b,
// in closed form: E[maxʳ] = E[aʳ] + E[bʳ] − E[minʳ], with E[minʳ] summed
// over the 2×2 pairs of mixture terms (see minMoments).
//
// The result is symmetric in a and b to the last bit: the operands are put
// in a canonical order first, so both argument orders run the same
// arithmetic. A memo may therefore key operand pairs unordered.
//
// Moments are computed in time units of the slowest rate among all four
// terms, so every scaled rate is ≥ 1 and no scaled moment exceeds
// (2·maxErlangStages)²: no rate sum or squared moment overflows, and a term
// too fast to register (its scaled rate +Inf) contributes zero. It fails
// only when the mean overflows as it is scaled back.
func MaxMoments(a, b Law) (mean, cv float64, err error) {
	x, y := a.b, b.b
	if branchesLess(y, x) {
		x, y = y, x
	}
	scale := math.Min(math.Min(x[0].rate, x[1].rate), math.Min(y[0].rate, y[1].rate))
	for i := range 2 {
		x[i].rate /= scale
		y[i].rate /= scale
	}
	x1, x2 := rawMoments(x)
	y1, y2 := rawMoments(y)
	var min1, min2 float64
	for _, bx := range x {
		for _, by := range y {
			e1, e2 := minMoments(bx.stages, bx.rate, by.stages, by.rate)
			w := bx.weight * by.weight
			min1 += w * e1
			min2 += w * e2
		}
	}
	m1 := x1 + y1 - min1
	m2 := x2 + y2 - min2
	mean = m1 / scale
	if !finitePositive(mean) {
		return 0, 0, fmt.Errorf("dist: max has no finite positive mean (%v)", mean)
	}
	v := m2 - m1*m1
	if v < 0 {
		v = 0 // rounding for near-deterministic inputs
	}
	return mean, math.Sqrt(v) / m1, nil
}

// branchesLess is a total order on mixtures, lexicographic over (rate,
// stages, weight) of each term. Mixtures it cannot order are equal in every
// field the max moments read.
func branchesLess(x, y [2]branch) bool {
	for i := range x {
		switch {
		case x[i].rate != y[i].rate:
			return x[i].rate < y[i].rate
		case x[i].stages != y[i].stages:
			return x[i].stages < y[i].stages
		case x[i].weight != y[i].weight:
			return x[i].weight < y[i].weight
		}
	}
	return false
}

// rawMoments returns E[X] and E[X²] of a mixture: Erlang(n, λ) has
// E[X] = n/λ and E[X²] = n(n+1)/λ².
func rawMoments(bs [2]branch) (m1, m2 float64) {
	for _, b := range bs {
		n := float64(b.stages)
		m1 += b.weight * n / b.rate
		m2 += b.weight * n * (n + 1) / (b.rate * b.rate)
	}
	return m1, m2
}

// minMoments returns E[min] and E[min²] of independent Erlang(m, a) and
// Erlang(n, b), rates ≥ 1. One of them may be +Inf (never both: the two
// terms of one fit are a finite ratio apart), and the min is then 0.
//
// Merged, the two stage processes are one Poisson process of rate s = a+b
// in which each event advances X with probability p = a/s, else Y
// (q = 1−p). The minimum is the time of the N-th event, and N is
// independent of the gaps, so E[min] = E[N]/s and E[min²] = E[N(N+1)]/s².
// N ends at X's m-th stage after f < n of Y's, with probability
// C(m−1+f, f)·pᵐ·q^f, or at Y's n-th stage after g < m of X's, the mirror
// case: two finite sums of positive terms.
//
// The roles are ordered so that a ≥ b. Then p ≥ 1/2 and pᵐ ≥ 2⁻⁴⁰⁰ cannot
// underflow. The mirror sum starts from qⁿ, which underflows when b ≪ a;
// but its terms are at most C(n−1+g, g)·qⁿ < 2⁸⁰⁰·qⁿ, so by then their
// total weight is below 1e-60 and losing them changes nothing. p, q and 1/s
// are formed from r = b/a ≤ 1 without computing a+b.
func minMoments(m int, a float64, n int, b float64) (e1, e2 float64) {
	if a < b {
		m, a, n, b = n, b, m, a
	}
	r := b / a
	p := 1 / (1 + r)
	q := r / (1 + r)
	inv := 1 / a / (1 + r)
	var n1, n2 float64 // E[N], E[N(N+1)]
	t := math.Pow(p, float64(m))
	for f := range n {
		k := float64(m + f)
		n1 += k * t
		n2 += k * (k + 1) * t
		t *= q * k / float64(f+1)
	}
	t = math.Pow(q, float64(n))
	for g := range m {
		k := float64(n + g)
		n1 += k * t
		n2 += k * (k + 1) * t
		t *= p * k / float64(g+1)
	}
	return n1 * inv, n2 * inv * inv
}
