package stats

import (
	"math"
	"testing"
)

func TestMeanInterval(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	iv := MeanInterval(xs, 0.95)
	if iv.Mean != 3 {
		t.Errorf("mean = %v, want 3", iv.Mean)
	}
	if iv.Batches != 5 || iv.Level != 0.95 {
		t.Errorf("metadata wrong: %+v", iv)
	}
	// s = sqrt(2.5), t_{4, 0.975} = 2.7764: half-width = t * s / sqrt(5).
	want := 2.7764 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(iv.HalfWidth-want) > 1e-3 {
		t.Errorf("half-width = %v, want %v", iv.HalfWidth, want)
	}

	// MeanInterval over the same samples must agree with BatchMeans fed the
	// same values as batch means — both are t intervals over the sample mean.
	var bm BatchMeans
	for _, x := range xs {
		bm.AddBatchMean(x)
	}
	ref := bm.ConfidenceInterval(0.95)
	if math.Abs(iv.Mean-ref.Mean) > 1e-12 || math.Abs(iv.HalfWidth-ref.HalfWidth) > 1e-12 {
		t.Errorf("MeanInterval %+v disagrees with BatchMeans %+v", iv, ref)
	}
}

func TestMeanIntervalDegenerate(t *testing.T) {
	if iv := MeanInterval(nil, 0.95); iv.Mean != 0 || !math.IsInf(iv.HalfWidth, 1) {
		t.Errorf("empty samples: %+v", iv)
	}
	if iv := MeanInterval([]float64{7}, 0.95); iv.Mean != 7 || !math.IsInf(iv.HalfWidth, 1) {
		t.Errorf("single sample: %+v", iv)
	}
}
