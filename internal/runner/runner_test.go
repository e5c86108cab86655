package runner

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// testConfig returns a scaled-down, short simulator configuration so one
// replication completes in well under a second.
func testConfig() sim.Config {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 100
	cfg.MeasurementSec = 400
	cfg.Batches = 5
	return cfg
}

func TestSeedForIsDeterministicAndWellSeparated(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := SeedFor(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SeedFor(1, %d) collides with SeedFor(1, %d)", i, prev)
		}
		seen[s] = i
	}
	if SeedFor(1, 0) != SeedFor(1, 0) {
		t.Error("SeedFor must be deterministic")
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("different base seeds should derive different substreams")
	}
	// Derived seeds must not collapse onto the small integers users pick as
	// base seeds (the simulator multiplies raw seeds by 4, so nearby small
	// seeds would correlate its internal streams).
	for i := 0; i < 4; i++ {
		if s := SeedFor(1, i); s >= -16 && s <= 16 {
			t.Errorf("SeedFor(1, %d) = %d is a degenerate small seed", i, s)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	var baseline Summary
	for _, workers := range []int{1, 4, 8} {
		got, err := Run(cfg, Options{Replications: 3, Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("workers=%d produced different results than workers=1:\n%v\nvs\n%v",
				workers, got, baseline)
		}
	}
	if baseline.Replications != 3 || len(baseline.PerReplication) != 3 {
		t.Fatalf("expected 3 replications, got %+v", baseline)
	}
	if baseline.Merged.CarriedDataTraffic.Batches != 3 {
		t.Errorf("merged interval should span 3 replications, got %d",
			baseline.Merged.CarriedDataTraffic.Batches)
	}
	if baseline.String() == "" {
		t.Error("Summary should render")
	}
}

func TestRunShardedEngineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	serial, err := Run(cfg, Options{Replications: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Shard-level parallelism under a shared limiter must not change the
	// merged summary: replication i still runs seed SeedFor(42, i) and the
	// sharded engine is bit-identical to the serial one.
	lim := NewLimiter(2)
	sharded, err := Run(cfg, Options{Replications: 2, BaseSeed: 42, Shards: 4, Limiter: lim})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, serial) {
		t.Errorf("sharded replications differ from serial ones:\n%v\nvs\n%v", sharded, serial)
	}
}

func TestRunRejectsAliasedAdmission(t *testing.T) {
	lim := NewLimiter(1)
	_, err := Run(testConfig(), Options{
		Replications: 1, BaseSeed: 1, Shards: 2, Limiter: lim, Admission: lim,
	})
	if err == nil {
		t.Fatal("Admission aliasing Limiter must be rejected (it would deadlock)")
	}
}

func TestRunShardedWithSharedAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	serial, err := Run(cfg, Options{Replications: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The narrowest possible pools: one CPU token, one live simulator, three
	// replications of two shards each. The admission pool being distinct
	// from the CPU pool is what keeps this free of deadlock; the merged
	// summary must still match the serial run bit for bit.
	lim := NewLimiter(1)
	adm := NewLimiter(1)
	sharded, err := Run(cfg, Options{
		Replications: 3, BaseSeed: 7, Shards: 2, Limiter: lim, Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, serial) {
		t.Errorf("admission-bounded sharded run differs from serial run:\n%v\nvs\n%v", sharded, serial)
	}
}

func TestRunReplicationsAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	got, err := Run(testConfig(), Options{Replications: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.PerReplication[0], got.PerReplication[1]
	if a.PacketsOffered == b.PacketsOffered && a.Events == b.Events {
		t.Error("distinct replications should follow distinct sample paths")
	}
	wantOffered := a.PacketsOffered + b.PacketsOffered
	if got.Merged.PacketsOffered != wantOffered {
		t.Errorf("merged offered packets = %d, want sum %d", got.Merged.PacketsOffered, wantOffered)
	}
}

func TestRunSingleReplicationKeepsBatchMeans(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short mode")
	}
	got, err := Run(testConfig(), Options{BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Replications != 1 {
		t.Fatalf("default replication count should be 1, got %d", got.Replications)
	}
	if got.Merged.CarriedDataTraffic.Batches != 5 {
		t.Errorf("single replication should report its batch-means interval, got %d batches",
			got.Merged.CarriedDataTraffic.Batches)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.BufferSize = 0
	if _, err := Run(cfg, Options{Replications: 2}); err == nil {
		t.Error("invalid configuration should fail")
	}
	// One batch in one replication has no confidence interval.
	cfg = testConfig()
	cfg.Batches = 1
	if _, err := Run(cfg, Options{}); !errors.Is(err, sim.ErrInvalidConfig) {
		t.Errorf("one batch in one replication: got %v, want sim.ErrInvalidConfig", err)
	}
}

func TestRunProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	cfg.MeasurementSec = 100
	var mu sync.Mutex
	var dones []int
	_, err := Run(cfg, Options{
		Replications: 3,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 3 || dones[len(dones)-1] != 3 {
		t.Errorf("progress calls = %v, want three calls ending at 3", dones)
	}
}

func TestMergeAgainstManualWelford(t *testing.T) {
	mk := func(cdt float64, offered int64) sim.Results {
		return sim.Results{
			CarriedDataTraffic: stats.Interval{Mean: cdt, HalfWidth: 0.5, Level: 0.95, Batches: 10},
			PacketsOffered:     offered,
			SimulatedSec:       100,
			Events:             1000,
		}
	}
	got := Merge([]sim.Results{mk(1, 10), mk(2, 20), mk(4, 30)}, 0.95)
	want := stats.MeanInterval([]float64{1, 2, 4}, 0.95)
	if math.Abs(got.Merged.CarriedDataTraffic.Mean-want.Mean) > 1e-12 ||
		math.Abs(got.Merged.CarriedDataTraffic.HalfWidth-want.HalfWidth) > 1e-12 {
		t.Errorf("merged CDT interval %+v, want %+v", got.Merged.CarriedDataTraffic, want)
	}
	if got.Merged.PacketsOffered != 60 || got.Merged.SimulatedSec != 300 || got.Merged.Events != 3000 {
		t.Errorf("totals not summed: %+v", got.Merged)
	}

	if one := Merge([]sim.Results{mk(1, 10)}, 0.95); one.Merged.CarriedDataTraffic.HalfWidth != 0.5 {
		t.Errorf("single-replication merge should pass the result through, got %+v",
			one.Merged.CarriedDataTraffic)
	}
	if zero := Merge(nil, 0.95); zero.Replications != 0 {
		t.Errorf("empty merge should be zero, got %+v", zero)
	}
}

// summaryGolden is the text report of the Summary built in
// TestSummaryStringPinned, byte for byte: the stdout format of a replicated
// gprs-sim run.
const summaryGolden = `8 replication(s), base seed 7, variance reduction antithetic, adaptive target plp (met at 0.0432 relative half-width)
mid-cell results over 3200 s (1542071 events)
  CDT (PDCHs)          0 ± 0
  PLP                  0.0125 ± 0.00054
  QD (s)               0 ± 0
  throughput (bit/s)   0 ± 0
  ATU (bit/s)          0 ± 0
  AGS (sessions)       0 ± 0
  CVT (channels)       0 ± 0
  GSM blocking         0 ± 0
  GPRS blocking        0 ± 0
  mean queue length    0 ± 0
  offered=20024 lost=250 delivered=0 handovers in/out=0/0 tcp timeouts=0 fast recoveries=0
`

// TestSummaryStringPinned pins the summary report of an adaptive run under
// variance reduction byte for byte.
func TestSummaryStringPinned(t *testing.T) {
	s := Summary{
		Merged: sim.Results{
			PacketLossProbability: stats.Interval{Mean: 0.0125, HalfWidth: 0.00054},
			PacketsOffered:        20024, PacketsLost: 250,
			SimulatedSec: 3200, Events: 1542071,
		},
		Replications: 8, BaseSeed: 7, VR: VRAntithetic,
		Adaptive: true, Converged: true, Target: sim.MeasurePLP, RelativeHalfWidth: 0.0432,
	}
	if got := s.String(); got != summaryGolden {
		t.Errorf("summary report changed:\n%s\nwant:\n%s", got, summaryGolden)
	}
}

// TestMergeCoversEveryResultsField guards the hand-maintained field lists in
// Merge: every stats.Interval field of sim.Results must appear in the
// measures accessor table, and every numeric total must be summed. Adding a
// field to sim.Results without extending Merge fails here instead of
// silently producing a wrong merged summary.
func TestMergeCoversEveryResultsField(t *testing.T) {
	var r sim.Results
	covered := make(map[uintptr]bool)
	for m := range sim.NumMeasures {
		covered[reflect.ValueOf(r.Interval(m)).Pointer()] = true
	}

	one := sim.Results{}
	ov := reflect.ValueOf(&one).Elem()
	intervalType := reflect.TypeOf(stats.Interval{})
	rv := reflect.ValueOf(&r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if f.Type == intervalType {
			if !covered[rv.Field(i).Addr().Pointer()] {
				t.Errorf("interval field %s is missing from the measures table", f.Name)
			}
			continue
		}
		switch fv := ov.Field(i); fv.Kind() {
		case reflect.Int64:
			fv.SetInt(1)
		case reflect.Uint64:
			fv.SetUint(1)
		case reflect.Float64:
			fv.SetFloat(1)
		case reflect.Slice:
			if f.Name != "PerCell" && f.Name != "PerCellCI" {
				t.Errorf("slice field %s has no merge rule — extend Merge and this test", f.Name)
			}
			// PerCell merging is covered below and by TestMergePerCell;
			// PerCellCI by TestPerCellIntervals.
		default:
			t.Errorf("field %s has unhandled kind %v — extend Merge and this test", f.Name, fv.Kind())
		}
	}
	one.PerCell = []sim.CellMeasures{{Cell: 0, CarriedVoiceTraffic: 1, PacketsOffered: 1}}

	merged := Merge([]sim.Results{one, one}, 0.95).Merged
	mv := reflect.ValueOf(merged)
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		if f.Type == intervalType {
			continue
		}
		var got float64
		switch fv := mv.Field(i); fv.Kind() {
		case reflect.Int64:
			got = float64(fv.Int())
		case reflect.Uint64:
			got = float64(fv.Uint())
		case reflect.Float64:
			got = fv.Float()
		case reflect.Slice:
			continue // PerCell, checked below
		}
		if got != 2 {
			t.Errorf("total %s = %v after merging two replications of 1, want 2 — not summed in Merge", f.Name, got)
		}
	}
	if len(merged.PerCell) != 1 {
		t.Fatalf("merged PerCell has %d entries, want 1", len(merged.PerCell))
	}
	if pc := merged.PerCell[0]; pc.CarriedVoiceTraffic != 1 || pc.PacketsOffered != 2 {
		t.Errorf("merged PerCell = %+v: point estimates should average (1) and counters sum (2)", pc)
	}
}

// TestMergePerCell checks the per-cell merge rules across replications:
// point estimates average, counter totals sum, and mismatched cell counts
// drop the merged per-cell report instead of fabricating one.
func TestMergePerCell(t *testing.T) {
	a := sim.Results{PerCell: []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 1, GSMBlocking: 0.2, PacketsDelivered: 10, HandoversIn: 3},
		{Cell: 1, CarriedDataTraffic: 3, GSMBlocking: 0.4, PacketsDelivered: 30, HandoversIn: 5},
	}}
	b := sim.Results{PerCell: []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 2, GSMBlocking: 0.4, PacketsDelivered: 20, HandoversIn: 5},
		{Cell: 1, CarriedDataTraffic: 5, GSMBlocking: 0.2, PacketsDelivered: 50, HandoversIn: 7},
	}}
	merged := Merge([]sim.Results{a, b}, 0.95).Merged
	want := []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 1.5, GSMBlocking: 0.3, PacketsDelivered: 30, HandoversIn: 8},
		{Cell: 1, CarriedDataTraffic: 4, GSMBlocking: 0.3, PacketsDelivered: 80, HandoversIn: 12},
	}
	for i, w := range want {
		got := merged.PerCell[i]
		if math.Abs(got.CarriedDataTraffic-w.CarriedDataTraffic) > 1e-12 ||
			math.Abs(got.GSMBlocking-w.GSMBlocking) > 1e-12 ||
			got.PacketsDelivered != w.PacketsDelivered || got.HandoversIn != w.HandoversIn {
			t.Errorf("cell %d: merged %+v, want %+v", i, got, w)
		}
	}

	short := sim.Results{PerCell: a.PerCell[:1]}
	if got := Merge([]sim.Results{a, short}, 0.95).Merged.PerCell; got != nil {
		t.Errorf("mismatched cell counts should drop the merged per-cell report, got %+v", got)
	}

	// Every int64 field of CellMeasures is a counter: reachable through
	// Counter, and summed across replications.
	var one sim.CellMeasures
	ov := reflect.ValueOf(&one).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).Kind() == reflect.Int64 {
			ov.Field(i).SetInt(int64(i + 1))
		}
	}
	reached := map[*int64]bool{}
	for k := range probe.NumCounters {
		if f := one.Counter(k); f != nil {
			reached[f] = true
		}
	}
	rep := sim.Results{PerCell: []sim.CellMeasures{one}}
	sum := reflect.ValueOf(Merge([]sim.Results{rep, rep}, 0.95).Merged.PerCell[0])
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		if f.Kind() != reflect.Int64 {
			continue
		}
		name := ov.Type().Field(i).Name
		if !reached[f.Addr().Interface().(*int64)] {
			t.Errorf("CellMeasures.%s is not reachable through Counter", name)
		}
		if got, want := sum.Field(i).Int(), 2*f.Int(); got != want {
			t.Errorf("merged CellMeasures.%s = %d, want the sum %d", name, got, want)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	lim := NewLimiter(3)
	if lim.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", lim.Cap())
	}
	var active, peak int32
	err := ForEach(lim, 64, func(i int) error {
		n := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Errorf("observed %d concurrent tasks, limiter cap is 3", peak)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := &indexError{5}
	errB := &indexError{2}
	err := ForEach(NewLimiter(4), 8, func(i int) error {
		switch i {
		case 5:
			return errA
		case 2:
			return errB
		}
		return nil
	})
	if err != errB {
		t.Errorf("ForEach returned %v, want the lowest-index error %v", err, errB)
	}
	if err := ForEach(nil, 4, func(int) error { return nil }); err != nil {
		t.Errorf("nil limiter should run unbounded: %v", err)
	}
	if err := ForEach(nil, 0, func(int) error { return errA }); err != nil {
		t.Errorf("empty loop should not invoke fn: %v", err)
	}
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "task failed" }
