package mva

// dotRows computes the same sums as dotRowsGo, bit for bit, with SSE2
// two-lane arithmetic (dot_amd64.s). It does no bounds checks: the caller
// guarantees len(x) ≥ n, len(out) ≥ len(rows) and (rows[t]+1)·n ≤ len(w)
// for every t.
//
//go:noescape
func dotRows(w []float64, n int, x []float64, rows []int32, out []float64)
