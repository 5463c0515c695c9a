package mva

// dotRowsGo is the portable form of dotRows and the oracle the amd64
// kernel is tested against bit for bit: for each t,
//
//	out[t] = Σ_j w[rows[t]·n + j] · x[j],  j = 0..n-1,
//
// summed over two accumulators — a0 takes the even j and a1 the odd j,
// each in ascending order — and returned as a0 + a1. An odd n's last term
// goes into a0. Every product is rounded before its add: the float64
// conversion forbids fusing it into an FMA on architectures that have one,
// so every architecture gives the same bits.
//
// The caller guarantees len(x) ≥ n, len(out) ≥ len(rows) and
// (rows[t]+1)·n ≤ len(w) for every t.
func dotRowsGo(w []float64, n int, x []float64, rows []int32, out []float64) {
	x = x[:n]
	for t, r := range rows {
		row := w[int(r)*n : int(r)*n+n]
		var a0, a1 float64
		j := 0
		for ; j+1 < n; j += 2 {
			a0 += float64(row[j] * x[j])
			a1 += float64(row[j+1] * x[j+1])
		}
		if j < n {
			a0 += float64(row[j] * x[j])
		}
		out[t] = a0 + a1
	}
}
