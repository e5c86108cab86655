package stats

import (
	"fmt"
	"math"
)

// BatchMeans implements the batch-means method for steady-state simulation
// output analysis: the run is split into batches, the batch averages are
// treated as (approximately) independent samples, and a Student-t confidence
// interval is computed over them. The paper's simulator reports 95%
// confidence intervals computed this way. The zero value is ready to use.
type BatchMeans struct {
	batches []float64
}

// AddBatchMean records an externally computed batch mean directly. This is
// used when the simulator partitions its run into fixed-length time batches
// and computes time-weighted averages per batch.
func (b *BatchMeans) AddBatchMean(mean float64) {
	b.batches = append(b.batches, mean)
}

// Mean returns the grand mean over all completed batches.
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return 0
	}
	var sum float64
	for _, v := range b.batches {
		sum += v
	}
	return sum / float64(len(b.batches))
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean      float64
	HalfWidth float64
	Level     float64
	Batches   int
}

// String formats the interval as "mean ± halfwidth".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g", iv.Mean, iv.HalfWidth)
}

// ConfidenceInterval returns the confidence interval over the completed batch
// means at the given confidence level (e.g. 0.95). With fewer than two
// batches the half-width is reported as +Inf.
func (b *BatchMeans) ConfidenceInterval(level float64) Interval {
	n := len(b.batches)
	iv := Interval{Mean: b.Mean(), Level: level, Batches: n}
	if n < 2 {
		iv.HalfWidth = math.Inf(1)
		return iv
	}
	var w Welford
	for _, v := range b.batches {
		w.Add(v)
	}
	t := TQuantile(n-1, 1-level)
	iv.HalfWidth = t * w.StdDev() / math.Sqrt(float64(n))
	return iv
}
