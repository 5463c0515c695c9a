// Package mva provides the overlap-weighted residence-time step (Mak &
// Lundstrom [5], Liang & Tripathi [4]) of the paper's Mean Value Analysis:
// the queueing delay of a task at a center is proportional to the overlap
// between tasks (α for tasks of the same job, β across jobs), and the
// safeguarded Aitken accelerator of the chained solve's inner loop.
// With every pair fully overlapping it reduces to Schweitzer–Bard
// approximate MVA (checked against it in the tests).
package mva

import (
	"errors"
	"fmt"
	"math"
)

// Aitken is the safeguarded Δ² accelerator of the overlap solver's inner
// sweeps, which only the chained solve (core's PredictWarm) enables: it
// records two plain iterates (x0, x1), and on the third (x2) extrapolates
// each component's geometric tail — x* = x2 − (Δx1)²/(Δ²x0) — wherever the
// safeguards hold: a non-degenerate second difference, a bounded step
// (≤ 8·|Δx1|, so a near-stalled denominator cannot fling the iterate), a
// finite result and a caller-supplied component floor. Components failing
// any check keep the plain iterate — the "safeguarded fallback to plain damping". Convergence
// must always be declared on plain sweep deltas, never on an extrapolated
// one: callers Observe *after* their tolerance check. The zero Aitken is
// not ready; call Init first.
type Aitken struct {
	x0, x1 []float64
	phase  int
}

// Init sizes the accelerator for n-component iterates, reusing its
// capacity, and resets its phase. The first two Observe calls overwrite
// what the buffers held.
func (a *Aitken) Init(n int) {
	if cap(a.x0) < n {
		a.x0, a.x1 = make([]float64, n), make([]float64, n)
	}
	a.x0, a.x1 = a.x0[:n], a.x1[:n]
	a.phase = 0
}

// Observe feeds the current iterate (flat, same length as Init); on every
// third call it writes the extrapolated components back into cur. floor[i]
// is the smallest admissible value of component i. Extrapolated reports
// whether this call changed cur.
func (a *Aitken) Observe(cur, floor []float64) (extrapolated bool) {
	switch a.phase {
	case 0:
		copy(a.x0, cur)
		a.phase = 1
	case 1:
		copy(a.x1, cur)
		a.phase = 2
	default:
		for i, x2 := range cur {
			x0, x1 := a.x0[i], a.x1[i]
			d1, d2 := x1-x0, x2-x1
			den := d2 - d1
			if math.Abs(den) <= 1e-12*(1+math.Abs(x2)) {
				continue // stalled or already converged component
			}
			x := x2 - d2*d2/den
			if math.IsNaN(x) || math.IsInf(x, 0) || x < floor[i] || math.Abs(x-x2) > 8*math.Abs(d2) {
				continue // safeguard: keep the plain iterate
			}
			cur[i] = x
			extrapolated = true
		}
		a.phase = 0
	}
	return extrapolated
}

// TaskDemand describes one task (a leaf of the precedence tree) to the
// overlap-weighted solver: its service demand at each center.
type TaskDemand struct {
	Demands []float64
}

// OverlapInput drives one overlap-weighted residence-time step.
type OverlapInput struct {
	Tasks []TaskDemand
	// Weights holds the fused overlap weights, k·n·n long for n tasks over k
	// centers and center-major: row c·n+i is W[c][i][0..n). Off the
	// diagonal W[c][i][j] = α^c_ij + (N−1)·β^c_ij, where α^c_ij is the
	// intra-job overlap factor between tasks i and j as seen by center c
	// (per-node centers zero out pairs on different nodes), β^c_ij the
	// contribution of task j of *one* other identical job, and N−1 the
	// number of competing jobs. The diagonal is (N−1)·β^c_ii alone: a task
	// does not queue behind itself, but its twin in another job does. The
	// row of a task with zero demand at c is never read, so callers need not
	// write (or clear) it.
	Weights []float64
	// Servers[k] is the service multiplicity of center k (cores per node,
	// disks per node, network fabric width). Zero or negative defaults to 1.
	Servers []float64
	// Tol and MaxIter bound the inner fixed point.
	Tol     float64
	MaxIter int
	// Warm optionally seeds the fixed point with a prior residence matrix
	// (one row of per-center residence times per task) instead of the cold
	// residence=demand start — e.g. the previous outer iteration's converged
	// Residence. Entries are clamped from
	// below by the task demand (a valid residence never undercuts it, since
	// the slowdown factor is ≥ 1); a misshapen or non-finite row falls back
	// to the cold start for that task. Warm may alias the solver's own
	// previous result.
	Warm [][]float64
	// Accelerate enables safeguarded Aitken Δ² extrapolation of the
	// residence iterates (every third sweep, component-wise, falling back to
	// the plain damped iterate wherever the safeguards reject the step).
	// Convergence is still only ever declared on a plain sweep's delta.
	Accelerate bool
}

// OverlapResult holds per-task response and residence times.
type OverlapResult struct {
	// Residence[i][k] is task i's residence time at center k.
	Residence [][]float64
	// Response[i] = sum_k Residence[i][k].
	Response []float64
	// Iterations is the number of sweeps used.
	Iterations int
}

// OverlapSolver runs overlap-weighted residence-time steps with reusable
// scratch buffers: the residence matrices are double-buffered over flat
// backing arrays, so repeated Step calls — the outer loop of the paper's
// model iterates the step to a fixed point, and a run of predictions solves
// many steps of the same shape — allocate nothing once warmed up.
//
// A solver is not safe for concurrent use. The matrices inside the returned
// OverlapResult alias solver-owned memory and are valid until the next Step
// call; callers that retain them across steps must copy.
type OverlapSolver struct {
	resBuf   []float64   // backing of the two residence matrices
	resFlat  []float64   // n×k residence matrix, current iterate
	nextFlat []float64   // n×k residence matrix, next iterate
	dem      []float64   // n×k demand matrix, the Step's Tasks flattened
	rows     [][]float64 // the result's view of resFlat, one row per task
	resp     []float64
	servers  []float64
	rhoC     []float64 // k×n center-major visit probabilities
	arr      []float64 // one center's arrival sums, aligned with its live rows
	rowDirty []bool    // rows whose residence changed on the last sweep
	rowsC    []int32   // k×n center-major task rows: live (demand ≠ 0) first, then zero rows
	nLive    []int32   // per-center count of live rows at the front of rowsC
	acc      Aitken    // Δ² accelerator scratch (Accelerate inputs only)
	n, k     int
}

// ensure sizes the scratch for n tasks over k centers, reusing capacity.
// The scratch takes five allocations: the two residence matrices share one
// array — and nothing else does, so a Warm that aliases the previous
// result is read only from residence memory — the other float scratch
// shares a second, the row lists and their counts a third.
func (s *OverlapSolver) ensure(n, k int) {
	if s.n == n && s.k == k {
		return
	}
	s.n, s.k = n, k
	need := n * k
	if cap(s.resBuf) < 2*need {
		s.resBuf = make([]float64, 2*need)
	}
	s.resFlat, s.nextFlat = s.resBuf[:need:need], s.resBuf[need:2*need:2*need]
	// rhoC and rowsC lead their arrays and keep the full capacity, so the
	// next resize can reuse it.
	floats := 2*need + 2*n + k
	if cap(s.rhoC) < floats {
		s.rhoC = make([]float64, floats)
	}
	f := s.rhoC[:floats]
	s.rhoC, s.dem, f = f[:need], f[need:2*need:2*need], f[2*need:]
	s.resp, s.arr, s.servers = f[:n:n], f[n:2*n:2*n], f[2*n:]
	if cap(s.rowsC) < need+k {
		s.rowsC = make([]int32, need+k)
	}
	idx := s.rowsC[:need+k]
	s.rowsC, s.nLive = idx[:need], idx[need:]
	if cap(s.rowDirty) < n {
		s.rowDirty = make([]bool, n)
		s.rows = make([][]float64, n)
	}
	s.rowDirty = s.rowDirty[:n]
	s.rows = s.rows[:n]
}

// result views the current iterate as an OverlapResult.
func (s *OverlapSolver) result(it int) OverlapResult {
	k := s.k
	for i := range s.rows {
		s.rows[i] = s.resFlat[i*k : (i+1)*k : (i+1)*k]
	}
	return OverlapResult{Residence: s.rows, Response: s.resp, Iterations: it + 1}
}

// Step solves the overlap-weighted residence-time fixed point
// (Mak–Lundstrom arrival queue lengths over processor-sharing multi-server
// centers):
//
//	arr_ik = sum_j W^k_ij ρ_jk
//	R_ik   = D_ik * max(1, (1 + arr_ik) / c_k)
//
// with W the fused overlap weights (OverlapInput.Weights), ρ_jk = R_jk / R_j
// the probability that an active task j resides at center k, and c_k the
// center's service multiplicity. For c_k = 1 this is
// the classical single-server inflation D_ik*(1+arr); for c_k > 1 it is the
// fluid processor-sharing law: no slowdown until the expected concurrency
// exceeds the server count. Iterates until response times are stable.
func (s *OverlapSolver) Step(in OverlapInput) (OverlapResult, error) {
	tol, maxIter, err := s.prepare(&in)
	if err != nil {
		return OverlapResult{}, err
	}
	return s.result(s.sweepFused(&in, tol, maxIter)), nil
}

// prepare validates in, sizes the scratch and loads the starting iterate
// (cold or warm), returning the resolved tolerance and sweep budget.
func (s *OverlapSolver) prepare(in *OverlapInput) (tol float64, maxIter int, err error) {
	n := len(in.Tasks)
	if n == 0 {
		return 0, 0, errors.New("mva: no tasks")
	}
	if len(in.Tasks[0].Demands) == 0 {
		return 0, 0, errors.New("mva: tasks need at least one center demand")
	}
	k := len(in.Tasks[0].Demands)
	for i, t := range in.Tasks {
		if len(t.Demands) != k {
			return 0, 0, fmt.Errorf("mva: task %d has %d demands, want %d", i, len(t.Demands), k)
		}
		for _, d := range t.Demands {
			if d < 0 {
				return 0, 0, fmt.Errorf("mva: task %d has negative demand", i)
			}
		}
	}
	if len(in.Weights) != k*n*n {
		return 0, 0, fmt.Errorf("mva: %d weights, want %d (centers × tasks × tasks)", len(in.Weights), k*n*n)
	}
	if in.Servers != nil && len(in.Servers) != k {
		return 0, 0, errors.New("mva: Servers must have one entry per center")
	}
	s.ensure(n, k)
	for c := 0; c < k; c++ {
		s.servers[c] = 1
		if in.Servers != nil && in.Servers[c] > 0 {
			s.servers[c] = in.Servers[c]
		}
	}
	tol = in.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter = in.MaxIter
	if maxIter <= 0 {
		maxIter = 500
	}

	// Initialize residence = demand, or from the warm matrix where it
	// supplies a valid (≥ demand, finite) value. Note the warm rows may
	// alias the previous Step's result: the element-wise max below is
	// alias-safe because entry (i,c) only reads entry (i,c), or — after a
	// change of task count — the same or a later position of the residence
	// array it writes from the front.
	for i := 0; i < n; i++ {
		var row []float64
		if i < len(in.Warm) && len(in.Warm[i]) == k {
			row = in.Warm[i]
		}
		tot, demTot := 0.0, 0.0
		for c, d := range in.Tasks[i].Demands {
			s.dem[i*k+c] = d
			demTot += d
			v := d
			if row != nil && d > 0 && row[c] > d && !math.IsInf(row[c], 0) && !math.IsNaN(row[c]) {
				v = row[c]
			}
			if d == 0 {
				v = 0
			}
			s.resFlat[i*k+c] = v
			tot += v
		}
		if demTot <= 0 {
			return 0, 0, fmt.Errorf("mva: task %d has zero total demand", i)
		}
		s.resp[i] = tot
	}

	// Demands are fixed within a Step, so each center's live and zero rows
	// are listed once here: live rows ascending at the front of the
	// center's segment of rowsC, zero rows filling it from the back. A zero
	// row's residence is 0 in both matrices for the whole Step (the warm
	// load above wrote the current one; every Warm row has been read), so
	// the sweeps never write it.
	for c := 0; c < k; c++ {
		rows := s.rowsC[c*n : (c+1)*n]
		live, zero := 0, n
		for i := 0; i < n; i++ {
			if s.dem[i*k+c] != 0 {
				rows[live] = int32(i)
				live++
			} else {
				zero--
				rows[zero] = int32(i)
				s.nextFlat[i*k+c] = 0
			}
		}
		s.nLive[c] = int32(live)
	}

	if in.Accelerate {
		if len(s.acc.x0) != n*k {
			s.acc.Init(n * k)
		} else {
			s.acc.phase = 0
		}
	}
	return tol, maxIter, nil
}

// sweepFused is the struct-of-arrays sweep: the caller's fused weight rows
// are read in place, ρ is stored center-major so each center's arrival sums
// read two contiguous arrays, and each center's sums over its live rows are
// one dotRows call — two accumulators per row (even/odd j), the same bits
// on every architecture. Zero rows stay 0 (see prepare): an Aitken step
// leaves their constant components alone.
func (s *OverlapSolver) sweepFused(in *OverlapInput, tol float64, maxIter int) int {
	n, k := s.n, s.k
	w := in.Weights
	// All rows start dirty: ρ has never been computed for this iterate.
	for i := range s.rowDirty {
		s.rowDirty[i] = true
	}
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		// ρ_jk = R_jk / R_j, center-major. Rows whose residence was
		// bit-unchanged by the previous sweep divide to the same value, so
		// only dirty rows are recomputed — bit-identical, just cheaper when
		// a warm start lands most rows on their fixed point immediately.
		for j := 0; j < n; j++ {
			if !s.rowDirty[j] {
				continue
			}
			row := s.resFlat[j*k : (j+1)*k]
			inv := s.resp[j]
			for c := 0; c < k; c++ {
				s.rhoC[c*n+j] = row[c] / inv
			}
		}
		for c := 0; c < k; c++ {
			live := s.rowsC[c*n : c*n+int(s.nLive[c])]
			dotRows(w[c*n*n:(c+1)*n*n], n, s.rhoC[c*n:(c+1)*n], live, s.arr)
			for t, i := range live {
				slowdown := (1 + s.arr[t]) / s.servers[c]
				if slowdown < 1 {
					slowdown = 1
				}
				s.nextFlat[int(i)*k+c] = s.dem[int(i)*k+c] * slowdown
			}
		}
		for i := 0; i < n; i++ {
			var tot float64
			changed := false
			nextRow, resRow := s.nextFlat[i*k:(i+1)*k], s.resFlat[i*k:(i+1)*k]
			for c := 0; c < k; c++ {
				tot += nextRow[c]
				if nextRow[c] != resRow[c] {
					changed = true
				}
			}
			if delta := math.Abs(tot - s.resp[i]); delta > maxDelta {
				maxDelta = delta
			}
			s.resp[i] = tot
			s.rowDirty[i] = changed
		}
		s.resFlat, s.nextFlat = s.nextFlat, s.resFlat
		if maxDelta < tol {
			break
		}
		if in.Accelerate {
			if s.acc.Observe(s.resFlat, s.dem) {
				// The extrapolated matrix changed the row sums the next
				// sweep's visit probabilities divide by — and every row, so
				// the dirty bitmap resets.
				for i := 0; i < n; i++ {
					tot := 0.0
					for c := 0; c < k; c++ {
						tot += s.resFlat[i*k+c]
					}
					s.resp[i] = tot
					s.rowDirty[i] = true
				}
			}
		}
	}
	return it
}
