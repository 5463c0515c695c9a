package service

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"hadoop2perf/internal/obs"
)

// This file implements the planner's deadline fast path: instead of
// evaluating every node count of the what-if grid, the search exploits the
// model's monotonicity in cluster size — response time does not increase
// when nodes are added — to locate the feasibility frontier by bisection in
// O(log N) predictions, then walks upward from the frontier pruning
// candidates whose cost provably cannot beat the incumbent.
//
// Monotonicity is an optimization assumption, not an axiom. For
// single-reducer jobs it holds across the calibrated cluster range (pinned
// by core's TestPredictMonotoneInNodes); multi-reducer predictions show
// localized 20-30% spikes at reducer-placement parity boundaries, where a
// bisection sample can provably never rule out cheaper feasible "islands"
// between its probes. The search therefore only bisects single-reducer
// combos, and even there verifies the assumption over every pair of points
// it actually evaluates — including the point just below the frontier —
// falling back to exhaustive evaluation of that axis on any observed
// violation. Multi-reducer combos are evaluated exhaustively inside the
// same response. A rise between two points the search never evaluates
// stays invisible, so a searched plan is grid-exact only where the model's
// curve really is monotone: single-reducer 5 GB jobs break that, and in 5
// of 1,629 probe plans the search chose a costlier best than the grid (at
// worst 1.99× its node-seconds). PlanRequest.Exhaustive forces the grid
// unconditionally and is the exact path.
//
// Every evaluation flows through the service's canonical-key cache, so
// neighboring sweeps (and the bisection + sweep phases themselves) share
// work across requests and across combos that the model cannot distinguish
// (e.g. scheduler policies).

// minSearchAxis is the node-axis length below which the exhaustive grid is
// used: bisection cannot save work on tiny axes.
const minSearchAxis = 6

// monoTol is the relative slack of the monotonicity verifier: a later
// (larger-cluster) response may exceed an earlier one by at most this
// fraction before the search declares the axis non-monotone. Tight enough
// to catch real spikes (≥0.1%), loose enough to ignore float noise. Every
// point comes from the one deterministic model solve, cached or not, so
// the slack covers nothing else.
const monoTol = 1e-9

// useSearch reports whether the deadline fast path applies: a deadline
// objective, model-backed evaluation (simulator results are noisy and
// policy-dependent), a cluster-size axis worth bisecting, and no explicit
// opt-out. Class-mix axes enter the fast path only when they form a
// hardware chain (chainOrdered): bisection's pruning assumes rt is
// non-increasing along the axis, which the runtime verifier can only check
// at *evaluated* points — an axis of incomparable mixes (trade-offs like
// {4 fast} vs {2 fast + 2 slow}) has no such ordering to assume, so it is
// evaluated exhaustively inside the same response instead.
func useSearch(req *PlanRequest, choices []nodeChoice) bool {
	return req.DeadlineSec > 0 && !req.UseSimulator && !req.Exhaustive && len(choices) >= minSearchAxis
}

// chainOrdered reports whether the total-node-sorted axis forms a hardware
// chain: every successive mix contains the previous one componentwise, so
// each step only *adds* nodes — the same "more hardware does not slow the
// job" premise the flat node axis bisects on. A plain node axis (no counts)
// is trivially a chain.
func chainOrdered(sorted []nodeChoice) bool {
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1].counts, sorted[i].counts
		if prev == nil {
			continue
		}
		for c := range cur {
			if cur[c] < prev[c] {
				return false
			}
		}
	}
	return true
}

// axisOutcome is the result of evaluating one node axis (one combo of the
// non-node grid dimensions).
type axisOutcome struct {
	cands  []PlanCandidate // evaluated candidates only
	pruned int             // grid points skipped by bisection/dominance
	exact  bool            // false when the axis was evaluated exhaustively
}

// axisEval evaluates the node axis at index i: the candidate with its
// result filled in (its axis values even on error), and whether the
// answer passed the model's ε-test.
type axisEval func(i int) (c PlanCandidate, converged bool, err error)

// searchNodeAxis finds the grid-equivalent candidate set of one node axis
// under a deadline. The axis must be sorted by ascending size; weights
// carries each point's price weight (Σ count×price, node count when
// unpriced) — the cost objective is weights[i]·rt(i). eval serves the
// sequential bisection/sweep probes and must be safe for concurrent use:
// it also drives the exhaustive fallback's fan-out. It returns every
// evaluated point as a candidate (feasible points above the frontier,
// infeasible bisection probes below it) plus the count of pruned points.
//
// Exactness holds only under monotone response times: then the returned
// set provably contains the axis's cheapest feasible candidate — a pruned
// point i either satisfies rt(i) > deadline (below the frontier) or has
// cost weights[i]·rt(i) ≥ weights[i]·rt(max) strictly above the incumbent
// best. Monotonicity is checked only between evaluated points, so a dip
// below the frontier or a rise above it between two probes goes unseen and
// the search may return a costlier best than the grid (see the file
// comment). On any observed monotonicity violation the axis is
// re-evaluated exhaustively instead; so it is on an evaluation error, and
// on an answer that stopped before its ε-test, whose place on the curve is
// unknown.
func searchNodeAxis(weights []float64, deadline float64, eval axisEval) axisOutcome {
	n := len(weights)
	// Only a handful of the axis points are ever evaluated, so a point
	// keeps its response time and, once evaluated, its candidate's place
	// in cands (plus one; zero while unevaluated).
	type axisPoint struct {
		rt   float64
		cand int
	}
	points := make([]axisPoint, n)
	var cands []PlanCandidate // evaluated candidates, in evaluation order

	get := func(i int) (float64, bool) {
		if points[i].cand == 0 {
			c, converged, err := eval(i)
			if err != nil || !converged {
				return 0, false
			}
			cands = append(cands, c)
			points[i] = axisPoint{rt: c.ResponseTime, cand: len(cands)}
		}
		return points[i].rt, true
	}
	// monotone verifies the non-increasing assumption over every evaluated
	// pair (it suffices to compare consecutive evaluated points).
	monotone := func() bool {
		prev := math.Inf(1)
		for _, p := range points {
			if p.cand == 0 {
				continue
			}
			if p.rt > prev*(1+monoTol) {
				return false
			}
			prev = p.rt
		}
		return true
	}
	exhaustive := func() axisOutcome { return exhaustiveAxis(n, eval) }
	// collect returns the evaluated candidates in axis order.
	collect := func() axisOutcome {
		out := axisOutcome{exact: true, cands: make([]PlanCandidate, 0, len(cands))}
		for _, p := range points {
			if p.cand == 0 {
				out.pruned++
				continue
			}
			out.cands = append(out.cands, cands[p.cand-1])
		}
		return out
	}

	// Feasibility ceiling: if the largest cluster misses the deadline, no
	// smaller one meets it (monotone); the whole axis is infeasible. A lone
	// probe gives the monotonicity verifier nothing to check, so guard the
	// conclusion with a midpoint probe — an upward spike at the axis end
	// (rt(max) infeasible over a feasible interior) is caught here instead
	// of silently pruning a feasible plan.
	rtMax, ok := get(n - 1)
	if !ok {
		return exhaustive()
	}
	if rtMax > deadline {
		if mid := (n - 1) / 2; mid < n-1 {
			v, ok := get(mid)
			if !ok || !monotone() || v <= deadline {
				return exhaustive()
			}
		}
		return collect()
	}

	// Bisect the feasibility frontier: smallest index whose response meets
	// the deadline. The upper bracket is always an evaluated feasible point.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		v, ok := get(mid)
		if !ok || !monotone() {
			return exhaustive()
		}
		if v <= deadline {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	frontier := lo

	// Guard the frontier from below: a feasible point right under it means
	// the axis dips (non-monotone) and bisection may have missed cheaper
	// feasible islands.
	if frontier > 0 {
		v, ok := get(frontier - 1)
		if !ok || !monotone() || v <= deadline {
			return exhaustive()
		}
	}

	// Dominance sweep upward from the frontier. rt(max) lower-bounds every
	// response on the axis (monotone), so weights[i]·rt(max) lower-bounds
	// the cost of candidate i: once that optimistic cost exceeds the
	// incumbent best, i is dominated. Points already evaluated by the
	// bisection ride along for free.
	bestCost, bestRT := math.Inf(1), math.Inf(1)
	for i := frontier; i < n; i++ {
		if points[i].cand == 0 {
			if optimistic := weights[i] * rtMax; optimistic > bestCost {
				continue // dominated: true cost ≥ optimistic > best
			}
			if _, ok := get(i); !ok || !monotone() {
				return exhaustive()
			}
		}
		rt := points[i].rt
		if cost := weights[i] * rt; cost < bestCost || (cost == bestCost && rt < bestRT) {
			bestCost, bestRT = cost, rt
		}
	}
	return collect()
}

// exhaustiveAxis evaluates every point of one node axis of n points:
// candidates fan out concurrently (the worker pool bounds real
// parallelism, the cache collapses duplicates) and evaluation errors are
// recorded per candidate while the rest of the axis still completes.
func exhaustiveAxis(n int, eval axisEval) axisOutcome {
	out := axisOutcome{cands: make([]PlanCandidate, n)}
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(c *PlanCandidate) {
			defer wg.Done()
			var err error
			if *c, _, err = eval(i); err != nil {
				c.Err = err.Error()
			}
		}(&out.cands[i])
	}
	wg.Wait()
	return out
}

// planAxes evaluates every unit of a plan along its cluster-size axis,
// units concurrently (the per-candidate evaluations inside each unit are
// bounded by the service worker pool), and assembles and ranks the
// response. A grid plan evaluates every unit exhaustively over the axis in
// request order. A search plan (the deadline fast path, see useSearch)
// sorts the axis by total nodes; units that may bisect (planUnit.bisect:
// single-reducer jobs or workflows) on a chain-ordered axis ride
// searchNodeAxis, and the rest — multi-reducer units, whose response curves are not reliably
// monotone in cluster size, and units over non-chain mix axes — are
// evaluated exhaustively. On top of the chain premise, the bisection
// verifies monotonicity over every pair of points it actually evaluates
// and falls back to exhaustive on any violation. A workflow makespan is a
// max/sum composition of per-stage responses, each non-increasing in
// cluster size, so the same premise carries over.
func (s *Service) planAxes(ctx context.Context, req PlanRequest, choices []nodeChoice, units []planUnit) (PlanResponse, error) {
	resp := PlanResponse{Strategy: StrategyGrid}
	var weights []float64
	bisect := false
	if useSearch(&req, choices) {
		resp.Strategy = StrategySearch
		choices = slices.Clone(choices)
		sort.SliceStable(choices, func(a, b int) bool { return choices[a].nodes < choices[b].nodes })
		weights = make([]float64, len(choices))
		for i, ch := range choices {
			weights[i] = candidateSpec(&req, ch).PriceWeight()
		}
		bisect = chainOrdered(choices)
	}

	axis := func(u *planUnit) axisOutcome {
		eval := func(i int) (PlanCandidate, bool, error) {
			c := u.proto
			c.Nodes, c.ClassCounts = choices[i].nodes, choices[i].counts
			return u.eval(c)
		}
		if bisect && u.bisect {
			return searchNodeAxis(weights, req.DeadlineSec, eval)
		}
		return exhaustiveAxis(len(choices), eval)
	}
	outcomes := make([]axisOutcome, len(units))
	if len(units) == 1 {
		// A lone unit runs on the calling goroutine: a fresh one would
		// grow its stack through the model on every query.
		outcomes[0] = axis(&units[0])
	} else {
		var wg sync.WaitGroup
		for ui := range units {
			wg.Add(1)
			go func(u *planUnit, out *axisOutcome) {
				defer wg.Done()
				*out = axis(u)
			}(&units[ui], &outcomes[ui])
		}
		wg.Wait()
	}

	for _, out := range outcomes {
		resp.Candidates = append(resp.Candidates, out.cands...)
		resp.Pruned += out.pruned
	}
	s.count(obs.FromContext(ctx), obs.CounterPlanCandidates, int64(len(resp.Candidates)))
	finalizePlan(&resp, &req)
	return partialOnDeadline(ctx, resp)
}

// finalizePlan computes the derived candidate fields, ranks the grid and
// selects Best — shared by the grid and search paths.
func finalizePlan(resp *PlanResponse, req *PlanRequest) {
	deadline := req.DeadlineSec
	for i := range resp.Candidates {
		c := &resp.Candidates[i]
		if c.Err != "" {
			continue
		}
		resp.Evaluated++
		c.NodeSeconds = c.ResponseTime * float64(c.Nodes)
		c.Cost = c.ResponseTime * candidateSpec(req, nodeChoice{nodes: c.Nodes, counts: c.ClassCounts}).PriceWeight()
		c.Feasible = deadline > 0 && c.ResponseTime <= deadline
	}
	sortCandidates(resp.Candidates, deadline > 0)
	if len(resp.Candidates) > 0 {
		top := resp.Candidates[0]
		if top.Err == "" && (deadline <= 0 || top.Feasible) {
			resp.Best = &resp.Candidates[0]
		}
	}
}
