// Package stats provides small numeric helpers shared across the performance
// model: means, variances, coefficients of variation and signed relative
// errors. All functions are pure and operate on float64 slices.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation sigma/mu of xs, or 0 when the mean
// is zero.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// SignedRelError returns (estimate-actual)/actual; positive values indicate
// overestimation. It returns 0 when actual is zero.
func SignedRelError(estimate, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return (estimate - actual) / actual
}
