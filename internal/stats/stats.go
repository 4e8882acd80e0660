// Package stats provides the small statistical helpers the evaluation
// harness uses: geometric means (the paper reports geometric-mean
// speedups) and relative cycle-prediction errors.
package stats

import (
	"fmt"
	"math"
)

// GeomeanSkipNonPositive returns the geometric mean of the usable values
// of xs along with the number of values skipped. Non-positive values, NaN
// and +Inf are skipped rather than contaminating the whole mean: a single
// zero-cycle failed job would otherwise turn an entire report table into
// NaN. With no usable values it returns (0, skipped).
func GeomeanSkipNonPositive(xs []float64) (geomean float64, skipped int) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) { // !(x>0) also catches NaN
			skipped++
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(sum / float64(n)), skipped
}

// RelError returns |predicted-actual| / actual — the prediction-error
// metric of the paper's Figures 4 and 6. It returns NaN when actual is 0.
func RelError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.NaN()
	}
	return math.Abs(predicted-actual) / actual
}

// Speedup returns baseline/measured — how many times faster "measured" is
// than "baseline". It returns NaN when measured is 0.
func Speedup(baseline, measured float64) float64 {
	if measured == 0 {
		return math.NaN()
	}
	return baseline / measured
}

// Pct formats a fraction as a percentage string with one decimal.
func Pct(x float64) string {
	return fmt.Sprintf("%.1f%%", 100*x)
}
