package runner

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestParseVR checks the variance-reduction flag parser; the measure parser
// lives in package sim (TestParseMeasure).
func TestParseVR(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VarianceReduction
	}{{"none", VRNone}, {"", VRNone}, {"antithetic", VRAntithetic}, {"av", VRAntithetic}, {"control", VRControl}, {"cv", VRControl}} {
		got, err := ParseVR(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVR(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseVR("bogus"); err == nil {
		t.Error("ParseVR should reject unknown names")
	}
}

// TestRunRejectsUnknownTargetAndVR checks that an out-of-range stopping
// target or variance-reduction mode is an error before any replication runs,
// rather than a zero interval the stopping rule would report as met.
func TestRunRejectsUnknownTargetAndVR(t *testing.T) {
	cfg := testConfig()
	for _, o := range []Options{
		{Precision: 1e-9, Target: sim.Measure(42), MinReplications: 2, MaxReplications: 4, Workers: 1},
		{Precision: 1e-9, Target: -1, MinReplications: 2, MaxReplications: 4, Workers: 1},
		{Replications: 2, Target: sim.NumMeasures, Workers: 1},
		{Replications: 2, VR: VarianceReduction(7), Workers: 1},
		{Replications: 2, VR: -1, Workers: 1},
	} {
		if sum, err := Run(cfg, o); err == nil {
			t.Errorf("Run(target %v, vr %v) = %d reps converged=%v, want an error",
				o.Target, o.VR, sum.Replications, sum.Converged)
		}
	}
}

func TestRelHalfWidth(t *testing.T) {
	if got := relHalfWidth(stats.Interval{Mean: 10, HalfWidth: 0.5}); got != 0.05 {
		t.Errorf("relHalfWidth = %v, want 0.05", got)
	}
	if got := relHalfWidth(stats.Interval{Mean: 0, HalfWidth: 0}); got != 0 {
		t.Errorf("zero interval should be converged, got %v", got)
	}
	if got := relHalfWidth(stats.Interval{Mean: 0, HalfWidth: 1}); !math.IsInf(got, 1) {
		t.Errorf("zero mean with spread should be +Inf, got %v", got)
	}
}

// TestSampleIntervalChargesControlDoF pins the degrees-of-freedom charge of
// the control-variate estimator: the regression slope was fit on the same
// samples, so the reported interval must use the t-quantile with n-2 degrees
// of freedom — wider than the naive n-1 interval — and collapse to +Inf when
// nothing is left after estimating slope and mean.
func TestSampleIntervalChargesControlDoF(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6}
	plain := stats.MeanInterval(samples, 0.95)
	cv := SampleInterval(samples, 0.95, VRControl)
	want := plain.HalfWidth * stats.TQuantile(4, 0.05) / stats.TQuantile(5, 0.05)
	if math.Abs(cv.HalfWidth-want) > 1e-12 {
		t.Errorf("control interval half-width = %v, want %v", cv.HalfWidth, want)
	}
	if cv.HalfWidth <= plain.HalfWidth {
		t.Error("charging a degree of freedom must widen the interval")
	}
	if cv.Mean != plain.Mean {
		t.Error("the df charge must not move the point estimate")
	}
	if iv := SampleInterval([]float64{1, 2}, 0.95, VRControl); !math.IsInf(iv.HalfWidth, 1) {
		t.Errorf("two samples cannot support a control-variate interval, got %v", iv.HalfWidth)
	}
	if iv := SampleInterval(samples, 0.95, VRAntithetic); iv != plain {
		t.Errorf("non-control modes must not be charged: %+v vs %+v", iv, plain)
	}
	if iv := SampleInterval([]float64{3, 3, 3, 3}, 0.95, VRControl); iv.HalfWidth != 0 {
		t.Errorf("degenerate zero-width interval should stay zero, got %v", iv.HalfWidth)
	}
}

// TestAdaptiveFloorsFirstBatchAtTwo pins that the stopping rule never
// evaluates a single run's batch-means interval: an explicit MinReplications
// of 1 is floored at 2, so the merged summary always carries
// cross-replication intervals (per-cell ones included).
func TestAdaptiveFloorsFirstBatchAtTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	sum, err := Run(testConfig(), Options{
		Precision: 1e9, MinReplications: 1, MaxReplications: 1, BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replications != 2 {
		t.Fatalf("adaptive first batch = %d replications, want the floor of 2", sum.Replications)
	}
	if sum.Merged.PerCellCI == nil {
		t.Error("floored adaptive run should carry per-cell intervals")
	}
	if sum.Merged.CarriedVoiceTraffic.Batches != 2 {
		t.Errorf("merged interval should span 2 replications, got %d", sum.Merged.CarriedVoiceTraffic.Batches)
	}
}

// TestAdaptiveDisabledThresholdMatchesFixedR pins the equivalence the
// adaptive engine is built around: with the stopping rule effectively
// disabled — the replication bounds clamped to the fixed count, or an
// unreachable threshold that drives the loop to its cap — the merged numbers
// reproduce the fixed-R run bit for bit, because replication i is the same
// seeded run no matter which batch issued it.
func TestAdaptiveDisabledThresholdMatchesFixedR(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	fixed, err := Run(cfg, Options{Replications: 6, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Bounds clamped to R: one batch of six, then the cap ends the loop.
	clamped, err := Run(cfg, Options{
		Precision: 1e-12, MinReplications: 6, MaxReplications: 6, BaseSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !clamped.Adaptive || clamped.Converged {
		t.Errorf("clamped run should be adaptive and uncconverged: %+v", clamped)
	}
	if !reflect.DeepEqual(clamped.Merged, fixed.Merged) {
		t.Errorf("clamped adaptive merge differs from fixed-R:\n%v\nvs\n%v", clamped.Merged, fixed.Merged)
	}
	if !reflect.DeepEqual(clamped.PerReplication, fixed.PerReplication) {
		t.Error("clamped adaptive replications differ from fixed-R replications")
	}

	// Unreachable threshold with batching: the loop grows 4 -> 6 and stops
	// at the cap; the growth schedule must not change any number.
	batched, err := Run(cfg, Options{
		Precision: 1e-12, MinReplications: 4, MaxReplications: 6, BaseSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched.Merged, fixed.Merged) {
		t.Errorf("batched adaptive merge differs from fixed-R:\n%v\nvs\n%v", batched.Merged, fixed.Merged)
	}
}

// TestAdaptiveStopsEarlierAtFivePercent pins the CPU-saving claim: at a 5%
// relative half-width target on the GPRS throughput, the pinned test
// workload converges with fewer replications than the fixed-R baseline.
func TestAdaptiveStopsEarlierAtFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	const fixedR = 16
	// Workers 1 pins the plain half-again growth schedule: the pool-sized
	// batch quantization (see growBatch) would otherwise move the stopping
	// boundaries with the machine's core count.
	sum, err := Run(testConfig(), Options{
		Precision: 0.05, Target: sim.MeasureThroughput, Workers: 1,
		MinReplications: 4, MaxReplications: fixedR, BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Converged {
		t.Fatalf("adaptive run did not converge within %d replications (rel hw %v)", fixedR, sum.RelativeHalfWidth)
	}
	if sum.Replications >= fixedR {
		t.Errorf("adaptive run used %d replications, fixed baseline is %d", sum.Replications, fixedR)
	}
	if sum.RelativeHalfWidth > 0.05 {
		t.Errorf("converged above the target: rel hw %v", sum.RelativeHalfWidth)
	}
	if sum.Target != sim.MeasureThroughput {
		t.Errorf("summary target = %v", sum.Target)
	}
}

// TestGrowBatchQuantization pins the adaptive growth schedule: half-again
// growth with a floor of two, rounded up to a multiple of the gating pool
// width, kept even under antithetic pairing.
func TestGrowBatchQuantization(t *testing.T) {
	for _, tc := range []struct {
		n, pool int
		vr      VarianceReduction
		want    int
	}{
		{2, 1, VRNone, 2},        // floor
		{4, 1, VRNone, 2},        // half-again, pool 1 = legacy schedule
		{10, 1, VRNone, 5},       // half-again
		{4, 8, VRNone, 8},        // floor rounded up to the pool
		{10, 8, VRNone, 8},       // 5 rounded up to one pool
		{20, 8, VRNone, 16},      // 10 rounded up to two pools
		{9, 3, VRNone, 6},        // 4 rounded up to 6
		{4, 3, VRAntithetic, 4},  // 2 -> pool 3 -> even 4
		{10, 8, VRAntithetic, 8}, // already even
	} {
		if got := growBatch(tc.n, tc.pool, tc.vr); got != tc.want {
			t.Errorf("growBatch(%d, %d, %v) = %d, want %d", tc.n, tc.pool, tc.vr, got, tc.want)
		}
	}
}

// TestAdaptivePoolSizedBatchesKeepStopPoint runs the same unconverging
// adaptive workload under two pool widths: the batch boundaries differ (the
// narrow pool follows the legacy half-again schedule, the wide pool jumps in
// pool-sized strides — observed through the Progress totals), but both land
// on MaxReplications, so the stop point is unchanged and the merged results
// are bit-identical to each other and to the fixed-R run.
func TestAdaptivePoolSizedBatchesKeepStopPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	boundaries := func(workers int) (Summary, []int) {
		var mu sync.Mutex
		var totals []int
		sum, err := Run(cfg, Options{
			Precision: 1e-12, MinReplications: 2, MaxReplications: 12,
			Workers: workers, BaseSeed: 7,
			Progress: func(done, total int) {
				mu.Lock()
				if n := len(totals); n == 0 || totals[n-1] != total {
					totals = append(totals, total)
				}
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, totals
	}

	narrow, narrowTotals := boundaries(1)
	wide, wideTotals := boundaries(5)
	if want := []int{2, 4, 6, 9, 12}; !reflect.DeepEqual(narrowTotals, want) {
		t.Errorf("pool width 1 batch boundaries = %v, want the legacy schedule %v", narrowTotals, want)
	}
	if want := []int{2, 7, 12}; !reflect.DeepEqual(wideTotals, want) {
		t.Errorf("pool width 5 batch boundaries = %v, want pool-sized strides %v", wideTotals, want)
	}
	if narrow.Replications != 12 || wide.Replications != 12 {
		t.Fatalf("both runs should hit the cap: %d vs %d", narrow.Replications, wide.Replications)
	}
	if !reflect.DeepEqual(narrow.Merged, wide.Merged) {
		t.Error("same stop point, different pool widths: merged results must be bit-identical")
	}
	fixed, err := Run(cfg, Options{Replications: 12, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(narrow.Merged, fixed.Merged) {
		t.Error("capped adaptive run differs from the fixed-R run")
	}
}

// TestAntitheticReducesVariance pins the antithetic estimator on a fixed
// workload: at equal simulated cost (8 replications = 4 antithetic pairs),
// the variance of the mean over pair means must undercut the variance of the
// mean over 8 independent replications for the smooth occupancy measures.
func TestAntitheticReducesVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	const reps = 8
	plain, err := Run(cfg, Options{Replications: reps, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	anti, err := Run(cfg, Options{Replications: reps, BaseSeed: 1, VR: VRAntithetic})
	if err != nil {
		t.Fatal(err)
	}
	if anti.Replications != reps || anti.VR != VRAntithetic {
		t.Fatalf("antithetic run: %d replications, VR %v", anti.Replications, anti.VR)
	}
	if anti.Merged.CarriedVoiceTraffic.Batches != reps/2 {
		t.Errorf("antithetic intervals should span %d pairs, got %d", reps/2, anti.Merged.CarriedVoiceTraffic.Batches)
	}

	vom := func(s Summary, get func(sim.Results) float64) float64 {
		samples := s.EffectiveSamples(get)
		var w stats.Welford
		for _, x := range samples {
			w.Add(x)
		}
		return w.Variance() / float64(len(samples))
	}
	reduced := 0
	for _, get := range []func(sim.Results) float64{
		func(r sim.Results) float64 { return r.CarriedVoiceTraffic.Mean },
		func(r sim.Results) float64 { return r.AverageSessions.Mean },
		func(r sim.Results) float64 { return r.ThroughputBits.Mean },
	} {
		if vom(anti, get) < vom(plain, get) {
			reduced++
		}
	}
	if reduced < 2 {
		t.Errorf("antithetic pairing reduced the variance of only %d/3 occupancy measures", reduced)
	}
}

// TestControlVariateReducesVariance pins the in-sample guarantee of the
// regression-adjusted estimator: the adjusted samples can never have a larger
// sample variance than the raw ones, and for measures correlated with the
// GSM blocking control the reduction is strict.
func TestControlVariateReducesVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	const reps = 6
	plain, err := Run(cfg, Options{Replications: reps, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := Run(cfg, Options{Replications: reps, BaseSeed: 1, VR: VRControl})
	if err != nil {
		t.Fatal(err)
	}
	sampleVar := func(samples []float64) float64 {
		var w stats.Welford
		for _, x := range samples {
			w.Add(x)
		}
		return w.Variance()
	}
	for m := range sim.NumMeasures {
		get := func(r sim.Results) float64 { return r.Interval(m).Mean }
		raw := sampleVar(plain.EffectiveSamples(get))
		adj := sampleVar(cv.EffectiveSamples(get))
		if adj > raw*(1+1e-9) {
			t.Errorf("%s: control variate inflated the sample variance: %v > %v", m, adj, raw)
		}
	}
	// The control is the GSM blocking itself: its adjusted variance must
	// collapse essentially to zero, and the correlated voice occupancy must
	// strictly improve.
	blockRaw := sampleVar(plain.EffectiveSamples(func(r sim.Results) float64 { return r.GSMBlockingProbability.Mean }))
	blockAdj := sampleVar(cv.EffectiveSamples(func(r sim.Results) float64 { return r.GSMBlockingProbability.Mean }))
	if blockAdj > blockRaw*1e-6 {
		t.Errorf("control's own variance should collapse: %v vs raw %v", blockAdj, blockRaw)
	}
	cvtRaw := sampleVar(plain.EffectiveSamples(func(r sim.Results) float64 { return r.CarriedVoiceTraffic.Mean }))
	cvtAdj := sampleVar(cv.EffectiveSamples(func(r sim.Results) float64 { return r.CarriedVoiceTraffic.Mean }))
	if cvtAdj >= cvtRaw {
		t.Errorf("carried voice traffic should strictly improve under the control: %v vs %v", cvtAdj, cvtRaw)
	}
}

func TestControlVariateRejectsScenarioProfile(t *testing.T) {
	cfg := testConfig()
	cfg.Rates = constRates{voice: 0.1, data: 0.01}
	if _, err := Run(cfg, Options{Replications: 2, VR: VRControl}); err == nil {
		t.Error("control variates with a rate profile installed should be rejected")
	}
}

// constRates is a minimal RateProfile for the rejection test.
type constRates struct{ voice, data float64 }

func (c constRates) Rates(int, float64) (float64, float64) { return c.voice, c.data }
func (c constRates) NextChange(float64) float64            { return math.Inf(1) }

// TestPerCellIntervalsSynthetic checks the per-cell interval merge against
// hand-computed Student-t intervals, and the degenerate single-replication
// pass-through (no intervals can exist over one sample).
func TestPerCellIntervalsSynthetic(t *testing.T) {
	mk := func(cvt, cdt float64) sim.Results {
		return sim.Results{PerCell: []sim.CellMeasures{
			{Cell: 0, CarriedVoiceTraffic: cvt, CarriedDataTraffic: cdt},
			{Cell: 1, CarriedVoiceTraffic: cvt * 2, CarriedDataTraffic: cdt * 3},
		}}
	}
	merged := Merge([]sim.Results{mk(1, 0.5), mk(2, 0.7), mk(4, 0.6)}, 0.95).Merged
	if len(merged.PerCellCI) != 2 {
		t.Fatalf("PerCellCI has %d cells, want 2", len(merged.PerCellCI))
	}
	want := stats.MeanInterval([]float64{1, 2, 4}, 0.95)
	got := merged.PerCellCI[0].CarriedVoiceTraffic
	if got != want {
		t.Errorf("cell 0 CVT interval = %+v, want %+v", got, want)
	}
	want = stats.MeanInterval([]float64{1.5, 2.1, 1.8}, 0.95)
	got = merged.PerCellCI[1].CarriedDataTraffic
	if math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.HalfWidth-want.HalfWidth) > 1e-12 {
		t.Errorf("cell 1 CDT interval = %+v, want %+v", got, want)
	}
	if merged.PerCellCI[1].Cell != 1 {
		t.Errorf("cell id not carried: %+v", merged.PerCellCI[1])
	}

	single := Merge([]sim.Results{mk(1, 0.5)}, 0.95).Merged
	if single.PerCellCI != nil {
		t.Errorf("single-replication merge must not fabricate per-cell intervals: %+v", single.PerCellCI)
	}

	short := sim.Results{PerCell: mk(1, 1).PerCell[:1]}
	if got := Merge([]sim.Results{mk(1, 1), short}, 0.95).Merged.PerCellCI; got != nil {
		t.Errorf("mismatched cell counts should drop the per-cell intervals, got %+v", got)
	}
}

// TestPerCellIntervalsAgreeWithAggregate runs a real uniform workload and
// checks that the mid cell's per-cell interval coincides with the aggregate
// cross-replication interval of the same measure. The two are computed from
// the same underlying sample path through different estimators — the
// aggregate averages the mid cell's equal-length batch means, the per-cell
// report reads the whole-window time average off the gauge — which are
// mathematically identical but associate their floating-point sums
// differently, so the comparison is bit-exact on the interval metadata and
// tolerance-based (1e-9 relative) on the means and half-widths.
func TestPerCellIntervalsAgreeWithAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	sum, err := Run(testConfig(), Options{Replications: 3, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Merged.PerCellCI == nil {
		t.Fatal("merged replicated run should carry per-cell intervals")
	}
	mid := sum.Merged.PerCellCI[cluster.MidCell]
	for _, tc := range []struct {
		name      string
		perCell   stats.Interval
		aggregate stats.Interval
	}{
		{"CVT", mid.CarriedVoiceTraffic, sum.Merged.CarriedVoiceTraffic},
		{"CDT", mid.CarriedDataTraffic, sum.Merged.CarriedDataTraffic},
		{"AGS", mid.AverageSessions, sum.Merged.AverageSessions},
		{"queue", mid.MeanQueueLength, sum.Merged.MeanQueueLength},
	} {
		if tc.perCell.Level != tc.aggregate.Level || tc.perCell.Batches != tc.aggregate.Batches {
			t.Errorf("%s: mid-cell interval metadata %+v differs from aggregate %+v", tc.name, tc.perCell, tc.aggregate)
		}
		if !closeRel(tc.perCell.Mean, tc.aggregate.Mean, 1e-9) ||
			!closeRel(tc.perCell.HalfWidth, tc.aggregate.HalfWidth, 1e-9) {
			t.Errorf("%s: mid-cell interval %+v differs from aggregate %+v", tc.name, tc.perCell, tc.aggregate)
		}
	}
	// Non-mid cells must carry finite intervals too.
	other := (cluster.MidCell + 1) % len(sum.Merged.PerCellCI)
	if iv := sum.Merged.PerCellCI[other].CarriedVoiceTraffic; math.IsInf(iv.HalfWidth, 1) || iv.Mean == 0 {
		t.Errorf("cell %d interval looks degenerate: %+v", other, iv)
	}
}

// closeRel reports whether a and b agree to within rel relative error
// (absolute error for values near zero).
func closeRel(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= rel*scale
}
