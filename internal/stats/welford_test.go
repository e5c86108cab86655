package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordBasic(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.Count() != int64(len(data)) {
		t.Fatalf("count = %d, want %d", w.Count(), len(data))
	}
	if !almostEqual(w.Mean(), 5.0, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic data set is 4; sample variance is
	// 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Errorf("zero-value Welford should report zeros")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Errorf("single observation: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

// Property: mean always lies between min and max, and variance is never
// negative, for arbitrary input slices.
func TestWelfordProperties(t *testing.T) {
	prop := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			w.Add(x)
			lo, hi = min(lo, x), max(hi, x)
		}
		if w.Count() == 0 {
			return true
		}
		if w.Variance() < -1e-9 {
			ok = false
		}
		if w.Mean() < lo-1e-9 || w.Mean() > hi+1e-9 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Start(0, 0)
	tw.Update(2, 4)  // value 0 on [0,2)
	tw.Update(6, 1)  // value 4 on [2,6)
	tw.Update(10, 0) // value 1 on [6,10)
	// Integral = 0*2 + 4*4 + 1*4 = 20 over 10 time units.
	if got := tw.Mean(10); !almostEqual(got, 2.0, 1e-12) {
		t.Errorf("time-weighted mean = %v, want 2", got)
	}
	if tw.Current() != 0 {
		t.Errorf("current = %v, want 0", tw.Current())
	}
}

func TestTimeWeightedLateStart(t *testing.T) {
	var tw TimeWeighted
	tw.Start(100, 5)
	tw.Update(110, 0)
	if got := tw.Mean(120); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("mean = %v, want 2.5", got)
	}
}

func TestTimeWeightedZeroValueAutoStart(t *testing.T) {
	var tw TimeWeighted
	tw.Update(5, 2)
	if got := tw.Mean(10); !almostEqual(got, 1.0, 1e-12) {
		t.Errorf("mean = %v, want 1.0", got)
	}
}

func TestTimeWeightedNoElapsedTime(t *testing.T) {
	var tw TimeWeighted
	tw.Start(3, 7)
	if got := tw.Mean(3); got != 7 {
		t.Errorf("mean with zero elapsed = %v, want current value 7", got)
	}
}
