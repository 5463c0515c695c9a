package mva

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The classical MVA solvers below are test oracles: with every pair of
// tasks fully overlapping, the overlap-weighted step is exactly the
// Schweitzer–Bard fixed point (TestOverlapStepMatchesSchweitzerBard), and
// Schweitzer–Bard in turn tracks exact single-class MVA.

// Center is a service center of a closed network.
type Center struct {
	Name string
	// Demand is the per-visit service demand of one customer (seconds).
	Demand float64
	// Delay marks a pure delay (infinite-server) center with no queueing.
	Delay bool
}

// ExactResult holds the output of the exact single-class solver.
type ExactResult struct {
	// ResponseTime is the end-to-end response time with N customers.
	ResponseTime float64
	// Throughput is the system throughput X(N).
	Throughput float64
	// QueueLen[k] is the mean number of customers at center k.
	QueueLen []float64
	// Residence[k] is the response time at center k.
	Residence []float64
}

// ExactSingleClass runs the exact MVA recursion (Reiser & Lavenberg [7])
// for n customers over the centers. It returns an error for invalid inputs.
func ExactSingleClass(centers []Center, n int) (ExactResult, error) {
	if n <= 0 {
		return ExactResult{}, errors.New("mva: customer count must be positive")
	}
	if len(centers) == 0 {
		return ExactResult{}, errors.New("mva: need at least one center")
	}
	for _, c := range centers {
		if c.Demand < 0 {
			return ExactResult{}, fmt.Errorf("mva: center %q has negative demand", c.Name)
		}
	}
	k := len(centers)
	q := make([]float64, k)
	res := ExactResult{}
	for pop := 1; pop <= n; pop++ {
		resid := make([]float64, k)
		var total float64
		for i, c := range centers {
			if c.Delay {
				resid[i] = c.Demand
			} else {
				resid[i] = c.Demand * (1 + q[i])
			}
			total += resid[i]
		}
		x := float64(pop) / total
		for i := range centers {
			q[i] = x * resid[i]
		}
		res = ExactResult{ResponseTime: total, Throughput: x, QueueLen: q, Residence: resid}
	}
	// Copy queue lengths so callers can't alias internal state.
	qc := make([]float64, k)
	copy(qc, res.QueueLen)
	res.QueueLen = qc
	return res, nil
}

// ClassSpec describes one customer class of the approximate multiclass
// solver.
type ClassSpec struct {
	Name string
	// Population is the number of class customers.
	Population int
	// Demands[k] is the class's service demand at center k.
	Demands []float64
}

// ApproxResult holds the Schweitzer–Bard output.
type ApproxResult struct {
	// ResponseTime[c] is the per-class response time.
	ResponseTime []float64
	// Throughput[c] is the per-class throughput.
	Throughput []float64
	// QueueLen[c][k] is the mean class-c population at center k.
	QueueLen [][]float64
	// Iterations is the number of fixed-point sweeps used.
	Iterations int
}

// SchweitzerBard runs the approximate multiclass MVA fixed point: the
// arrival-instant queue length of class c at center k is approximated by
// sum_j q_jk - q_ck/N_c. Iterates until queue lengths move less than tol.
func SchweitzerBard(classes []ClassSpec, centers int, tol float64, maxIter int) (ApproxResult, error) {
	if len(classes) == 0 {
		return ApproxResult{}, errors.New("mva: need at least one class")
	}
	if centers <= 0 {
		return ApproxResult{}, errors.New("mva: need at least one center")
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 10_000
	}
	for _, c := range classes {
		if c.Population <= 0 {
			return ApproxResult{}, fmt.Errorf("mva: class %q has non-positive population", c.Name)
		}
		if len(c.Demands) != centers {
			return ApproxResult{}, fmt.Errorf("mva: class %q has %d demands, want %d", c.Name, len(c.Demands), centers)
		}
	}
	nc := len(classes)
	q := make([][]float64, nc)
	for c := range q {
		// Spread the class population evenly as the starting point.
		q[c] = make([]float64, centers)
		pop := float64(classes[c].Population)
		for k := 0; k < centers; k++ {
			q[c][k] = pop / float64(centers)
		}
	}
	resp := make([]float64, nc)
	thr := make([]float64, nc)
	// Double-buffer the queue lengths over flat backing.
	nextQ := make([][]float64, nc)
	nextFlat := make([]float64, nc*centers)
	for c := range nextQ {
		nextQ[c] = nextFlat[c*centers : (c+1)*centers : (c+1)*centers]
	}
	resid := make([]float64, centers)
	var it int
	for it = 0; it < maxIter; it++ {
		maxDelta := 0.0
		for c := range classes {
			var total float64
			for k := 0; k < centers; k++ {
				// Arrival theorem approximation.
				arr := 0.0
				for j := range classes {
					arr += q[j][k]
				}
				arr -= q[c][k] / float64(classes[c].Population)
				resid[k] = classes[c].Demands[k] * (1 + arr)
				total += resid[k]
			}
			x := float64(classes[c].Population) / total
			resp[c] = total
			thr[c] = x
			for k := 0; k < centers; k++ {
				nextQ[c][k] = x * resid[k]
				if d := math.Abs(nextQ[c][k] - q[c][k]); d > maxDelta {
					maxDelta = d
				}
			}
		}
		q, nextQ = nextQ, q
		if maxDelta < tol {
			break
		}
	}
	return ApproxResult{ResponseTime: resp, Throughput: thr, QueueLen: q, Iterations: it + 1}, nil
}

func TestExactSingleCustomer(t *testing.T) {
	// One customer never queues: response = sum of demands.
	centers := []Center{{Name: "cpu", Demand: 2}, {Name: "disk", Demand: 3}}
	res, err := ExactSingleClass(centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ResponseTime, 5, 1e-12) {
		t.Errorf("R(1) = %v, want 5", res.ResponseTime)
	}
	if !almostEq(res.Throughput, 0.2, 1e-12) {
		t.Errorf("X(1) = %v, want 0.2", res.Throughput)
	}
}

func TestExactTwoCustomersBalanced(t *testing.T) {
	// Classic textbook case: two balanced queues, N=2.
	// N=1: R=2, X=0.5, q=[0.5,0.5].
	// N=2: R_k = 1*(1+0.5) = 1.5 each, R=3, X=2/3, q=[1,1].
	centers := []Center{{Name: "a", Demand: 1}, {Name: "b", Demand: 1}}
	res, err := ExactSingleClass(centers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.ResponseTime, 3, 1e-12) {
		t.Errorf("R(2) = %v, want 3", res.ResponseTime)
	}
	if !almostEq(res.Throughput, 2.0/3, 1e-12) {
		t.Errorf("X(2) = %v, want 2/3", res.Throughput)
	}
	for k, q := range res.QueueLen {
		if !almostEq(q, 1, 1e-12) {
			t.Errorf("q[%d] = %v, want 1", k, q)
		}
	}
}

func TestExactDelayCenterNeverQueues(t *testing.T) {
	centers := []Center{
		{Name: "think", Demand: 10, Delay: true},
		{Name: "cpu", Demand: 1},
	}
	res, err := ExactSingleClass(centers, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Residence at the delay center stays exactly its demand.
	if !almostEq(res.Residence[0], 10, 1e-12) {
		t.Errorf("delay residence = %v", res.Residence[0])
	}
	if res.Residence[1] <= 1 {
		t.Errorf("queueing center should inflate: %v", res.Residence[1])
	}
}

func TestExactThroughputSaturation(t *testing.T) {
	// Throughput is bounded by 1/maxDemand; response grows ~linearly at
	// saturation (asymptotic bound analysis).
	centers := []Center{{Name: "bottleneck", Demand: 2}, {Name: "other", Demand: 1}}
	prevR := 0.0
	for n := 1; n <= 50; n++ {
		res, err := ExactSingleClass(centers, n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput > 0.5+1e-9 {
			t.Fatalf("X(%d) = %v exceeds bottleneck bound 0.5", n, res.Throughput)
		}
		if res.ResponseTime < prevR-1e-9 {
			t.Fatalf("R not monotone at N=%d", n)
		}
		prevR = res.ResponseTime
	}
	res, _ := ExactSingleClass(centers, 50)
	if !almostEq(res.Throughput, 0.5, 0.01) {
		t.Errorf("X(50) = %v, want ~0.5", res.Throughput)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := ExactSingleClass(nil, 1); err == nil {
		t.Error("no centers accepted")
	}
	if _, err := ExactSingleClass([]Center{{Demand: 1}}, 0); err == nil {
		t.Error("zero customers accepted")
	}
	if _, err := ExactSingleClass([]Center{{Demand: -1}}, 1); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestSchweitzerBardMatchesExactSingleClass(t *testing.T) {
	// For one class, Schweitzer-Bard should be close to exact MVA.
	centers := []Center{{Demand: 1}, {Demand: 2}, {Demand: 0.5}}
	for _, n := range []int{1, 2, 5, 10} {
		exact, err := ExactSingleClass(centers, n)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := SchweitzerBard([]ClassSpec{{
			Name: "c", Population: n, Demands: []float64{1, 2, 0.5},
		}}, 3, 1e-10, 0)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(approx.ResponseTime[0]-exact.ResponseTime) / exact.ResponseTime
		if rel > 0.12 {
			t.Errorf("N=%d: approx %v vs exact %v (%.1f%% off)",
				n, approx.ResponseTime[0], exact.ResponseTime, 100*rel)
		}
	}
}

func TestSchweitzerBardMulticlass(t *testing.T) {
	classes := []ClassSpec{
		{Name: "a", Population: 2, Demands: []float64{1, 0.5}},
		{Name: "b", Population: 3, Demands: []float64{0.5, 1}},
	}
	res, err := SchweitzerBard(classes, 2, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range classes {
		min := classes[c].Demands[0] + classes[c].Demands[1]
		if res.ResponseTime[c] <= min {
			t.Errorf("class %d response %v not above demand %v", c, res.ResponseTime[c], min)
		}
	}
	// Populations are conserved: sum_k q_ck == N_c (Little's law fixpoint).
	for c, spec := range classes {
		var tot float64
		for k := 0; k < 2; k++ {
			tot += res.QueueLen[c][k]
		}
		if !almostEq(tot, float64(spec.Population), 0.01) {
			t.Errorf("class %d population = %v, want %d", c, tot, spec.Population)
		}
	}
}

func TestSchweitzerBardValidation(t *testing.T) {
	if _, err := SchweitzerBard(nil, 1, 0, 0); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 0, Demands: []float64{1}}}, 1, 0, 0); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 1, Demands: []float64{1, 2}}}, 1, 0, 0); err == nil {
		t.Error("demand/center mismatch accepted")
	}
	if _, err := SchweitzerBard([]ClassSpec{{Population: 1, Demands: []float64{1}}}, 0, 0, 0); err == nil {
		t.Error("zero centers accepted")
	}
}

// With n identical tasks, every pair fully overlapping at every center
// (α = 1 off the diagonal, β = 1 everywhere) and single servers, task i's
// arrival queue at center k is (n·N − 1)·ρ_k: exactly the Schweitzer–Bard
// arrival estimate for one class of n·N customers. The two fixed points
// must agree.
func TestOverlapStepMatchesSchweitzerBard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n, k, jobs := 1+rng.Intn(8), 1+rng.Intn(4), 1+rng.Intn(4)
		dem := make([]float64, k)
		for c := range dem {
			dem[c] = 0.5 + 4*rng.Float64()
		}
		in := OverlapInput{Tasks: make([]TaskDemand, n), Weights: make([]float64, k*n*n), Tol: 1e-13, MaxIter: 100_000}
		for i := range in.Tasks {
			in.Tasks[i] = TaskDemand{Demands: dem}
		}
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				row := in.Weights[(c*n+i)*n : (c*n+i+1)*n]
				for j := range row {
					row[j] = 1 + float64(jobs-1)
				}
				row[i] = float64(jobs - 1)
			}
		}
		got, err := OverlapStep(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SchweitzerBard([]ClassSpec{{Population: n * jobs, Demands: dem}}, k, 1e-13, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got.Response {
			if rel := math.Abs(r-want.ResponseTime[0]) / want.ResponseTime[0]; rel > 1e-9 {
				t.Errorf("trial %d (n=%d k=%d N=%d) task %d: overlap %v, Schweitzer–Bard %v",
					trial, n, k, jobs, i, r, want.ResponseTime[0])
			}
		}
	}
}
