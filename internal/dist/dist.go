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
	"runtime"
	"sync"
	"sync/atomic"
)

// Distribution is a nonnegative random variable known through its CDF and
// first two moments.
type Distribution interface {
	Mean() float64
	Variance() float64
	// CV is the coefficient of variation (stddev / mean).
	CV() float64
	// CDF evaluates P(X <= x). It must be safe for concurrent use:
	// MaxMoments calls it from several goroutines at once. The package's own
	// fitted distributions are immutable values and are.
	CDF(x float64) float64
}

// maxErlangStages bounds the Erlang stage count of a fit. A requested cv
// below 1/sqrt(maxErlangStages) is clamped (the fitted cv is then slightly
// larger than requested); the model's leaf CVs (≥ 0.05 in practice) never
// reach the clamp.
const maxErlangStages = 400

// lgammaStages[n] is ln Γ(n) for every stage count a fit can use, so an
// Erlang CDF evaluation never recomputes it.
var lgammaStages = func() (t [maxErlangStages + 1]float64) {
	for n := 1; n <= maxErlangStages; n++ {
		t[n], _ = math.Lgamma(float64(n))
	}
	return t
}()

// Fit returns a phase-type distribution matching the given mean and
// coefficient of variation. It fails when the fitted parameters would not
// be finite and positive: a cv so large that the H₂'s slow branch vanishes
// in floating point, or a mean so small that the rates overflow.
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
		d := hyperExp2{
			p1: p1,
			l1: 2 * p1 / mean,
			l2: 2 * (1 - p1) / mean,
		}
		if !finitePositive(d.l1) || !finitePositive(d.l2) {
			return nil, fmt.Errorf("dist: no finite hyperexponential fits mean %v, cv %v", mean, cv)
		}
		return d, nil
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
		return nil, fmt.Errorf("dist: no finite Erlang mixture fits mean %v, cv %v", mean, cv)
	}
	return mixedErlang{k: k, p: p, mu: mu}, nil
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

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
	// Erlang(n, mu) CDF is the regularized lower incomplete gamma P(n, mu·x);
	// both terms share mu·x and its logarithm.
	mx := d.mu * x
	lx := math.Log(mx)
	return d.p*gammP(float64(d.k-1), lgammaStages[d.k-1], mx, lx) +
		(1-d.p)*gammP(float64(d.k), lgammaStages[d.k], mx, lx)
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

// Simpson grid of MaxMoments.
const (
	gridSteps  = 2048 // intervals; even
	gridPoints = gridSteps + 1
	// gridBlock is the unit of work when the grid is split across
	// goroutines: 64 points are 512 bytes, so two goroutines share at most
	// the one cache line where their blocks meet.
	gridBlock  = 64
	gridBlocks = (gridPoints + gridBlock - 1) / gridBlock
)

// MaxMoments returns the mean and cv of the maximum of independent
// variables, by numeric integration of the tail of the product CDF.
//
// The tail is evaluated on the integration grid by up to GOMAXPROCS
// goroutines, each claiming blocks of grid points, and then summed in grid
// order on the caller's goroutine, so the result does not depend on
// GOMAXPROCS: every setting gives the same bits.
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
	tail := maxTail{ds: ds, same: len(ds) == 2 && identical(ds[0], ds[1])}
	for i := 0; i < 30 && tail.at(upper) > 1e-10; i++ {
		upper *= 2
	}

	// Simpson integration of E[max] = ∫ tail and E[max²] = ∫ 2x·tail.
	h := upper / gridSteps
	var local [gridPoints]float64
	t := local[:]
	if w := min(runtime.GOMAXPROCS(0), gridBlocks); w > 1 {
		g := gridJobs.Get().(*gridJob)
		defer gridJobs.Put(g)
		g.fill(tail, h, w)
		t = g.t[:]
	} else {
		tail.fill(t, 0, gridPoints, h)
	}
	var m1, m2 float64
	for i, ti := range t {
		x := float64(i) * h
		w := 2.0
		switch {
		case i == 0 || i == gridSteps:
			w = 1
		case i%2 == 1:
			w = 4
		}
		m1 += w * ti
		m2 += w * 2 * x * ti
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

// maxTail is the integrand of MaxMoments: 1 − ∏ᵢFᵢ(x).
type maxTail struct {
	ds []Distribution
	// same marks max(X, X') of one distribution twice: one CDF evaluation
	// per point. 1·c·c is c·c exactly, and c == 0 gives 1 on both paths, so
	// the result is bit-identical to the product loop at half the cost.
	same bool
}

func (m maxTail) at(x float64) float64 {
	if m.same {
		c := m.ds[0].CDF(x)
		return 1 - c*c
	}
	prod := 1.0
	for _, d := range m.ds {
		prod *= d.CDF(x)
		if prod == 0 {
			break
		}
	}
	return 1 - prod
}

// fill sets t[i] to the tail at grid point i·h for i in [lo, hi).
func (m maxTail) fill(t []float64, lo, hi int, h float64) {
	for i := lo; i < hi; i++ {
		t[i] = m.at(float64(i) * h)
	}
}

// gridJob is the shared state of one split grid evaluation. Jobs are
// pooled, so the split reuses its grid buffer instead of allocating one per
// integration.
type gridJob struct {
	t    [gridPoints]float64
	tail maxTail // its operands copied, so the caller's slice stays its own
	h    float64
	next atomic.Int64 // next unclaimed block
	wg   sync.WaitGroup
}

var gridJobs = sync.Pool{New: func() any { return new(gridJob) }}

// fill evaluates tail on every grid point of g.t with w goroutines: w-1
// helpers and the caller's own. Each claims the next unclaimed block until
// none is left, so a helper that starts late takes less of the grid.
func (g *gridJob) fill(tail maxTail, h float64, w int) {
	g.tail = maxTail{ds: append(g.tail.ds[:0], tail.ds...), same: tail.same}
	g.h = h
	g.next.Store(0)
	g.wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer g.wg.Done()
			g.work()
		}()
	}
	g.work()
	g.wg.Wait()
	clear(g.tail.ds) // drop the operands so the pool does not keep them alive
}

func (g *gridJob) work() {
	for {
		lo := int(g.next.Add(1)-1) * gridBlock
		if lo >= gridPoints {
			return
		}
		g.tail.fill(g.t[:], lo, min(lo+gridBlock, gridPoints), g.h)
	}
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

// gammP is the regularized lower incomplete gamma function P(a, x) for
// a ≥ 1 and x ≥ 0, following the series / continued-fraction split of
// Numerical Recipes. The caller supplies lg = ln Γ(a) and lx = ln x.
func gammP(a, lg, x, lx float64) float64 {
	if x < a+1 {
		return gammPSeries(a, lg, x, lx)
	}
	return 1 - gammQContinued(a, lg, x, lx)
}

func gammPSeries(a, lg, x, lx float64) float64 {
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
	return sum * math.Exp(-x+a*lx-lg)
}

func gammQContinued(a, lg, x, lx float64) float64 {
	const tiny = 1e-300
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
	return math.Exp(-x+a*lx-lg) * h
}
