package mva

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// abInput is an overlap input in the historical α/β form: per-center
// intra-job (Alpha) and per-other-job inter-job (Beta) overlap matrices and
// the competing job count. fused folds it into the solver's Weights; the
// scalar oracle sweepLegacy reads the matrices directly.
type abInput struct {
	OverlapInput
	Alpha, Beta [][][]float64
	OtherJobs   int
}

// fused returns the solver input with Weights folded from α/β:
// W[c][i][j] = α[c][i][j] + (N−1)·β[c][i][j] off the diagonal and
// (N−1)·β[c][i][i] on it.
func (a abInput) fused() OverlapInput {
	in := a.OverlapInput
	n, k := len(a.Alpha[0]), len(a.Alpha)
	in.Weights = make([]float64, k*n*n)
	otherJobs := float64(a.OtherJobs)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			row := in.Weights[(c*n+i)*n : (c*n+i+1)*n]
			for j := range row {
				row[j] = a.Alpha[c][i][j] + otherJobs*a.Beta[c][i][j]
			}
			row[i] = otherJobs * a.Beta[c][i][i]
		}
	}
	return in
}

// OverlapStep solves one overlap-weighted residence-time step with a fresh
// solver (see OverlapSolver.Step).
func OverlapStep(in OverlapInput) (OverlapResult, error) {
	var s OverlapSolver
	return s.Step(in)
}

// step solves a with a fresh solver.
func step(a abInput) (OverlapResult, error) { return OverlapStep(a.fused()) }

func overlapInput(n int, d float64, alphaVal float64, servers []float64) abInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		tasks[i] = TaskDemand{Demands: []float64{d}}
	}
	alpha := [][][]float64{make([][]float64, n)}
	beta := [][][]float64{make([][]float64, n)}
	for i := 0; i < n; i++ {
		alpha[0][i] = make([]float64, n)
		beta[0][i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				alpha[0][i][j] = alphaVal
			}
		}
	}
	return abInput{OverlapInput: OverlapInput{Tasks: tasks, Servers: servers}, Alpha: alpha, Beta: beta}
}

func TestOverlapStepNoOverlapNoInflation(t *testing.T) {
	res, err := step(overlapInput(4, 10, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 10, 1e-9) {
			t.Errorf("task %d response = %v, want 10", i, r)
		}
	}
}

func TestOverlapStepFullOverlapSingleServer(t *testing.T) {
	// n tasks fully overlapping on one server: each sees n-1 competitors all
	// resident at the only center (rho=1): slowdown = n.
	n := 4
	res, err := step(overlapInput(n, 10, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 40, 1e-6) {
			t.Errorf("task %d response = %v, want 40", i, r)
		}
	}
}

func TestOverlapStepMultiServerAbsorbs(t *testing.T) {
	// 4 fully-overlapping tasks on a 4-server center: no slowdown.
	res, err := step(overlapInput(4, 10, 1, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Response {
		if !almostEq(r, 10, 1e-9) {
			t.Errorf("task %d response = %v, want 10", i, r)
		}
	}
	// ...but 8 tasks on 4 servers slow down 2x.
	res8, err := step(overlapInput(8, 10, 1, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res8.Response[0], 20, 1e-6) {
		t.Errorf("8 tasks on 4 servers: %v, want 20", res8.Response[0])
	}
}

func TestOverlapStepInterJob(t *testing.T) {
	// One task per job, OtherJobs identical twins fully aligned: slowdown =
	// 1 + OtherJobs.
	in := overlapInput(1, 10, 0, nil)
	in.Beta[0][0][0] = 1
	in.OtherJobs = 3
	res, err := step(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Response[0], 40, 1e-6) {
		t.Errorf("response = %v, want 40", res.Response[0])
	}
}

func TestOverlapStepValidation(t *testing.T) {
	if _, err := OverlapStep(OverlapInput{}); err == nil {
		t.Error("empty input accepted")
	}
	in := overlapInput(2, 10, 0.5, nil).fused()
	for _, w := range [][]float64{nil, in.Weights[:3], append(in.Weights, 0)} {
		bad := in
		bad.Weights = w
		if _, err := OverlapStep(bad); err == nil {
			t.Errorf("%d weights accepted, want 4", len(w))
		}
	}
	if _, err := step(overlapInput(2, 10, 0.5, []float64{1, 2})); err == nil {
		t.Error("servers length mismatch accepted")
	}
	if _, err := step(overlapInput(2, 0, 0.5, nil)); err == nil {
		t.Error("zero-demand task accepted")
	}
	in4 := overlapInput(2, 10, 0.5, nil)
	in4.Tasks[0].Demands = []float64{-1}
	if _, err := step(in4); err == nil {
		t.Error("negative demand accepted")
	}
}

// Property: response is always >= demand, monotone in the overlap level, and
// monotone in the number of competing jobs.
func TestOverlapStepMonotonicityProperty(t *testing.T) {
	f := func(nQ uint8, aQ, dQ uint8, jobsQ uint8) bool {
		n := int(nQ)%6 + 2
		alphaLo := float64(aQ%50) / 100
		alphaHi := alphaLo + 0.3
		d := float64(dQ%20) + 1
		jobs := int(jobsQ) % 4

		lo, err := step(overlapInput(n, d, alphaLo, nil))
		if err != nil {
			return false
		}
		hi, err := step(overlapInput(n, d, alphaHi, nil))
		if err != nil {
			return false
		}
		for i := range lo.Response {
			if lo.Response[i] < d-1e-9 {
				return false
			}
			if hi.Response[i] < lo.Response[i]-1e-9 {
				return false
			}
		}
		inJobs := overlapInput(n, d, alphaLo, nil)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				inJobs.Beta[0][i][j] = 0.5
			}
		}
		inJobs.OtherJobs = jobs
		withJobs, err := step(inJobs)
		if err != nil {
			return false
		}
		for i := range withJobs.Response {
			if withJobs.Response[i] < lo.Response[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// contendedInput builds a slowly-converging overlap fixed point: heavy
// intra- and inter-job contention over two centers of unequal demand.
func contendedInput(n int) abInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		tasks[i] = TaskDemand{Demands: []float64{10, 2}}
	}
	alpha := make([][][]float64, 2)
	beta := make([][][]float64, 2)
	for k := 0; k < 2; k++ {
		alpha[k] = make([][]float64, n)
		beta[k] = make([][]float64, n)
		for i := 0; i < n; i++ {
			alpha[k][i] = make([]float64, n)
			beta[k][i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i != j {
					alpha[k][i][j] = 0.9
				}
				beta[k][i][j] = 0.4
			}
		}
	}
	return abInput{OverlapInput: OverlapInput{Tasks: tasks, Tol: 1e-12}, Alpha: alpha, Beta: beta, OtherJobs: 3}
}

func TestOverlapSolverWarmMatchesCold(t *testing.T) {
	in := contendedInput(12)
	var cold OverlapSolver
	ref, err := cold.Step(in.fused())
	if err != nil {
		t.Fatal(err)
	}
	refResp := append([]float64(nil), ref.Response...)
	warmSeed := make([][]float64, len(ref.Residence))
	for i, row := range ref.Residence {
		warmSeed[i] = append([]float64(nil), row...)
	}

	// Same input warm-started from its own fixed point: near-instant, same
	// answer.
	var s OverlapSolver
	warmIn := in
	warmIn.Warm = warmSeed
	got, err := s.Step(warmIn.fused())
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations >= ref.Iterations {
		t.Errorf("warm restart used %d sweeps, cold %d", got.Iterations, ref.Iterations)
	}
	for i := range refResp {
		if !almostEq(got.Response[i], refResp[i], 1e-9) {
			t.Errorf("task %d: warm %v vs cold %v", i, got.Response[i], refResp[i])
		}
	}

	// A perturbed input (one extra competing job) warm-started from the
	// neighbor: same fixed point as its own cold solve.
	pert := in
	pert.OtherJobs = 4
	var coldP OverlapSolver
	refP, err := coldP.Step(pert.fused())
	if err != nil {
		t.Fatal(err)
	}
	refPResp := append([]float64(nil), refP.Response...)
	pertWarm := pert
	pertWarm.Warm = warmSeed
	var sP OverlapSolver
	gotP, err := sP.Step(pertWarm.fused())
	if err != nil {
		t.Fatal(err)
	}
	for i := range refPResp {
		if !almostEq(gotP.Response[i], refPResp[i], 1e-8) {
			t.Errorf("perturbed task %d: warm %v vs cold %v", i, gotP.Response[i], refPResp[i])
		}
	}
}

func TestOverlapSolverAccelerateMatchesPlain(t *testing.T) {
	in := contendedInput(16)
	plain, err := step(in)
	if err != nil {
		t.Fatal(err)
	}
	plainResp := append([]float64(nil), plain.Response...)
	accIn := in
	accIn.Accelerate = true
	var s OverlapSolver
	acc, err := s.Step(accIn.fused())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainResp {
		if !almostEq(acc.Response[i], plainResp[i], 1e-8) {
			t.Errorf("task %d: accelerated %v vs plain %v", i, acc.Response[i], plainResp[i])
		}
	}
	if acc.Iterations > plain.Iterations {
		t.Errorf("acceleration used %d sweeps, plain %d", acc.Iterations, plain.Iterations)
	}
	t.Logf("plain %d sweeps, accelerated %d", plain.Iterations, acc.Iterations)
}

// The solver's own previous result may be passed back as the warm seed
// (aliasing its internal buffers) — the documented reuse pattern of the
// model's outer loop.
func TestOverlapSolverWarmAliasPrevious(t *testing.T) {
	var s OverlapSolver
	in := contendedInput(8).fused()
	first, err := s.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	firstResp := append([]float64(nil), first.Response...)
	again := in
	again.Warm = first.Residence // aliases s's internal state
	second, err := s.Step(again)
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations > 2 {
		t.Errorf("restart from own fixed point took %d sweeps", second.Iterations)
	}
	for i := range firstResp {
		if !almostEq(second.Response[i], firstResp[i], 1e-9) {
			t.Errorf("task %d drifted: %v vs %v", i, second.Response[i], firstResp[i])
		}
	}
}

// A previous result may seed a Step with fewer tasks: the solver reuses its
// residence array, and the seed must read exactly as a copied one does.
func TestOverlapSolverWarmAliasShrink(t *testing.T) {
	for _, sizes := range [][2]int{{16, 10}, {16, 6}, {15, 14}, {9, 3}} {
		var s OverlapSolver
		first, err := s.Step(contendedInput(sizes[0]).fused())
		if err != nil {
			t.Fatal(err)
		}
		in := contendedInput(sizes[1]).fused()
		in.Warm = first.Residence[:sizes[1]] // aliases s's internal state
		var copied [][]float64
		for _, row := range in.Warm {
			copied = append(copied, append([]float64(nil), row...))
		}
		got, err := s.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		in.Warm = copied
		var fresh OverlapSolver
		want, err := fresh.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%d→%d tasks: %d sweeps, copied seed %d", sizes[0], sizes[1], got.Iterations, want.Iterations)
		}
		for i := range want.Response {
			if math.Float64bits(got.Response[i]) != math.Float64bits(want.Response[i]) {
				t.Errorf("%d→%d tasks, task %d: %v, copied seed %v", sizes[0], sizes[1], i, got.Response[i], want.Response[i])
			}
		}
	}
}

// Once a solver has seen a shape, Steps of that shape — warm from its own
// result or cold, with zero-demand cells in the row lists — allocate
// nothing.
func TestOverlapSolverWarmStepAllocatesNothing(t *testing.T) {
	in := randomOverlap(rand.New(rand.NewSource(3)), 21, 4, 2).fused()
	var s OverlapSolver
	res, err := s.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		in.Warm = res.Residence
		if res, err = s.Step(in); err != nil {
			t.Fatal(err)
		}
		in.Warm = nil
		if _, err = s.Step(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed-up Steps allocate %v times, want 0", allocs)
	}
}

// randomOverlap draws a contended overlap input: n tasks over k centers with
// random demands (a quarter of multi-center tasks skip one center), random
// α/β factors and 1–4 servers per center.
func randomOverlap(rng *rand.Rand, n, k, otherJobs int) abInput {
	tasks := make([]TaskDemand, n)
	for i := range tasks {
		d := make([]float64, k)
		for c := range d {
			d[c] = 0.5 + 4*rng.Float64()
		}
		if k > 1 && rng.Float64() < 0.25 {
			d[rng.Intn(k)] = 0
		}
		tasks[i] = TaskDemand{Demands: d}
	}
	alpha := make([][][]float64, k)
	beta := make([][][]float64, k)
	for c := 0; c < k; c++ {
		alpha[c] = make([][]float64, n)
		beta[c] = make([][]float64, n)
		for i := 0; i < n; i++ {
			alpha[c][i] = make([]float64, n)
			beta[c][i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i != j {
					alpha[c][i][j] = rng.Float64()
				}
				beta[c][i][j] = 0.5 * rng.Float64()
			}
		}
	}
	servers := make([]float64, k)
	for c := range servers {
		servers[c] = float64(1 + rng.Intn(4))
	}
	return abInput{
		OverlapInput: OverlapInput{Tasks: tasks, Servers: servers, Tol: 1e-11},
		Alpha:        alpha, Beta: beta, OtherJobs: otherJobs,
	}
}

// legacyStep is Step through sweepLegacy instead of the fused kernel.
func legacyStep(in abInput) (OverlapResult, error) {
	var s OverlapSolver
	fin := in.fused()
	tol, maxIter, err := s.prepare(&fin)
	if err != nil {
		return OverlapResult{}, err
	}
	return s.result(s.sweepLegacy(&in, tol, maxIter)), nil
}

// sweepLegacy is the historical element-wise sweep the fused kernel
// replaced, kept as its test oracle: per-(i,j) alpha/beta loads with the
// j != i branch and the interleaved α/β accumulation order.
func (s *OverlapSolver) sweepLegacy(in *abInput, tol float64, maxIter int) int {
	n, k := s.n, s.k
	otherJobs := float64(in.OtherJobs)
	rho := make([]float64, n*k) // task-major visit probabilities
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			for c := 0; c < k; c++ {
				rho[j*k+c] = s.resFlat[j*k+c] / s.resp[j]
			}
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				d := in.Tasks[i].Demands[c]
				if d == 0 {
					s.nextFlat[i*k+c] = 0
					continue
				}
				alphaRow := in.Alpha[c][i]
				betaRow := in.Beta[c][i]
				arr := 0.0
				for j := 0; j < n; j++ {
					r := rho[j*k+c]
					if j != i {
						arr += alphaRow[j] * r
					}
					arr += otherJobs * betaRow[j] * r
				}
				slowdown := (1 + arr) / s.servers[c]
				if slowdown < 1 {
					slowdown = 1
				}
				s.nextFlat[i*k+c] = d * slowdown
			}
		}
		for i := 0; i < n; i++ {
			var tot float64
			for c := 0; c < k; c++ {
				tot += s.nextFlat[i*k+c]
			}
			if delta := math.Abs(tot - s.resp[i]); delta > maxDelta {
				maxDelta = delta
			}
			s.resp[i] = tot
		}
		s.resFlat, s.nextFlat = s.nextFlat, s.resFlat
		if maxDelta < tol {
			break
		}
		if in.Accelerate {
			if s.acc.Observe(s.resFlat, s.dem) {
				for i := 0; i < n; i++ {
					tot := 0.0
					for c := 0; c < k; c++ {
						tot += s.resFlat[i*k+c]
					}
					s.resp[i] = tot
				}
			}
		}
	}
	return it
}

// The fused SoA sweep and the legacy element-wise sweep (sweepLegacy) are
// different summation orders of the same fixed point: they must agree to
// 1e-10 relative on every residence entry, over randomized flat and
// multi-class contended specs.
func TestOverlapFusedMatchesScalarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(14)
		k := 1 + rng.Intn(5)
		in := randomOverlap(rng, n, k, rng.Intn(5))
		in.Accelerate = rng.Float64() < 0.5

		fused, err := step(in)
		if err != nil {
			t.Fatalf("trial %d: fused: %v", trial, err)
		}
		ref, err := legacyStep(in)
		if err != nil {
			t.Fatalf("trial %d: scalar: %v", trial, err)
		}
		for i := range ref.Response {
			if rel := math.Abs(fused.Response[i]-ref.Response[i]) / ref.Response[i]; rel > 1e-10 {
				t.Errorf("trial %d (n=%d k=%d) task %d: fused %v vs scalar %v (rel %g)",
					trial, n, k, i, fused.Response[i], ref.Response[i], rel)
			}
			for c := range ref.Residence[i] {
				want := ref.Residence[i][c]
				got := fused.Residence[i][c]
				if want == 0 {
					if got != 0 {
						t.Errorf("trial %d task %d center %d: fused %v, scalar 0", trial, i, c, got)
					}
					continue
				}
				if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-10 {
					t.Errorf("trial %d task %d center %d: fused %v vs scalar %v (rel %g)", trial, i, c, got, want, rel)
				}
			}
		}
	}
}
