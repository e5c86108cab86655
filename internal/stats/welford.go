// Package stats provides the statistical estimators used by the detailed
// GPRS simulator and the experiment harness: online moment estimation
// (Welford), time-weighted averages for state variables such as queue lengths
// and channel occupancy, batch-means confidence intervals for steady-state
// simulation output, and Student-t quantiles.
//
// The package corresponds to the statistics facilities of the CSIM library
// used by the paper's authors; it is a from-scratch, stdlib-only substitute.
package stats

import "math"

// Welford accumulates observations and maintains running mean and variance
// using Welford's numerically stable online algorithm. The zero value is
// ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of recorded observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean. It returns 0 if no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance. It returns 0 for fewer than
// two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
