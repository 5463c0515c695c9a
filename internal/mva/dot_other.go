//go:build !amd64

package mva

// dotRows is dotRowsGo on architectures without the assembly kernel.
func dotRows(w []float64, n int, x []float64, rows []int32, out []float64) {
	dotRowsGo(w, n, x, rows, out)
}
