package sim

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/probe"
)

// shardedQuickConfig returns a short run of the scaled-down cell on the given
// preset cluster size.
func shardedQuickConfig(t *testing.T, cells int) Config {
	t.Helper()
	topo, err := cluster.Preset(cells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(true)
	cfg.Topology = topo
	cfg.MeasurementSec = 600
	return cfg
}

func runSharded(t *testing.T, cfg Config, opt ShardedOptions) Results {
	t.Helper()
	s, err := NewSharded(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedDeterministicAcrossShardCounts is the determinism contract of
// the sharded engine: for a fixed (seed, configuration) the results are
// bit-identical for shards=1 and any shards=N, because per-cell substreams
// decouple the cells' sample paths and window-barrier messages merge in a
// deterministic order.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	base := runSharded(t, cfg, ShardedOptions{Shards: 1})
	if base.Events == 0 || base.PacketsDelivered == 0 {
		t.Fatalf("degenerate baseline run: %+v", base)
	}
	for _, shards := range []int{2, 4, 7} {
		got := runSharded(t, cfg, ShardedOptions{Shards: shards})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d produced different results than shards=1:\n%+v\nvs\n%+v", shards, got, base)
		}
	}
}

// TestShardedMatchesSerialEngine checks the stronger property that the
// sharded engine reproduces the serial single-calendar engine bit for bit —
// both deliver handovers at the same absolute times and both drive every cell
// from the same substreams, so the engines are interchangeable.
func TestShardedMatchesSerialEngine(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	serial := runQuick(t, cfg)
	got := runSharded(t, cfg, ShardedOptions{Shards: 3})
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("sharded engine differs from serial engine:\n%+v\nvs\n%+v", got, serial)
	}
	// TestShardedLargeTopologies repeats this check on 19, 37 and 169 cells.
}

func TestShardedLargeTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster simulations skipped in -short mode")
	}
	// The 169-cell row is the city-scale cluster on eight workers, each
	// advancing one default (locality) cell group.
	for _, row := range []struct{ cells, shards int }{{19, 4}, {37, 4}, {169, 8}} {
		cells := row.cells
		cfg := shardedQuickConfig(t, cells)
		res := runSharded(t, cfg, ShardedOptions{Shards: row.shards})
		if res.Events == 0 || res.PacketsDelivered == 0 {
			t.Fatalf("%d cells: no traffic simulated: %+v", cells, res)
		}
		if res.HandoversIn == 0 || res.HandoversOut == 0 {
			t.Errorf("%d cells: expected handover flow through the mid cell, got in=%d out=%d",
				cells, res.HandoversIn, res.HandoversOut)
		}
		ratio := float64(res.HandoversIn) / float64(res.HandoversOut)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%d cells: handover flows badly unbalanced: in=%d out=%d",
				cells, res.HandoversIn, res.HandoversOut)
		}
		if res.CarriedVoiceTraffic.Mean <= 0 || res.AverageSessions.Mean <= 0 {
			t.Errorf("%d cells: implausible occupancies: %+v", cells, res)
		}
		if serial := runQuick(t, cfg); !reflect.DeepEqual(res, serial) {
			t.Errorf("%d cells on %d workers: sharded engine differs from serial engine", cells, row.shards)
		}
	}
}

// countingLimiter counts concurrent holders so the test can verify that the
// shard workers respect a shared bound.
type countingLimiter struct {
	tokens chan struct{}
	active atomic.Int32
	peak   atomic.Int32
}

func (l *countingLimiter) Acquire() {
	l.tokens <- struct{}{}
	n := l.active.Add(1)
	for {
		p := l.peak.Load()
		if n <= p || l.peak.CompareAndSwap(p, n) {
			break
		}
	}
}

func (l *countingLimiter) Release() {
	l.active.Add(-1)
	<-l.tokens
}

func TestShardedComposesWithSharedLimiter(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	want := runSharded(t, cfg, ShardedOptions{Shards: 1})
	lim := &countingLimiter{tokens: make(chan struct{}, 2)}
	got := runSharded(t, cfg, ShardedOptions{Shards: 4, Limiter: lim})
	if !reflect.DeepEqual(got, want) {
		t.Error("limited sharded run produced different results")
	}
	if p := lim.peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent shard workers, limiter cap is 2", p)
	}
}

func TestNewShardedValidation(t *testing.T) {
	cfg := quickConfig(true)
	cfg.BufferSize = 0
	if _, err := NewSharded(cfg, ShardedOptions{}); err == nil {
		t.Error("invalid configuration should be rejected")
	}
	good := quickConfig(true)
	s, err := NewSharded(good, ShardedOptions{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.part.NumGroups() != 7 {
		t.Errorf("shards should be capped at the cell count, got %d", s.part.NumGroups())
	}
	if s.config.HandoverLatencySec <= 0 {
		t.Error("defaulted configuration should carry a positive handover latency")
	}
}

// TestHandoverLatencyIsSmallPerturbation guards the modelling assumption
// behind the message-based handovers: the default 100 ms in-transit
// interruption is negligible against the 60-120 s dwell times, so mid-cell
// occupancies must stay in a sane range compared with an (almost)
// instantaneous handover.
func TestHandoverLatencyIsSmallPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs skipped in -short mode")
	}
	cfg := quickConfig(true)
	cfg.MeasurementSec = 3000
	base := runQuick(t, cfg)
	tiny := cfg
	tiny.HandoverLatencySec = 1e-4
	got := runQuick(t, tiny)
	if math.Abs(got.CarriedVoiceTraffic.Mean-base.CarriedVoiceTraffic.Mean) > 0.35*math.Max(base.CarriedVoiceTraffic.Mean, 0.1) {
		t.Errorf("CVT too sensitive to handover latency: %v vs %v",
			got.CarriedVoiceTraffic.Mean, base.CarriedVoiceTraffic.Mean)
	}
	if math.Abs(got.AverageSessions.Mean-base.AverageSessions.Mean) > 0.35*math.Max(base.AverageSessions.Mean, 0.1) {
		t.Errorf("AGS too sensitive to handover latency: %v vs %v",
			got.AverageSessions.Mean, base.AverageSessions.Mean)
	}
}

func TestSubstreamSeedingDecouplesCells(t *testing.T) {
	// Two different seeds must change every cell's sample path; the old
	// affine seed*4+k derivation made nearby seeds share streams.
	a := runQuick(t, quickConfig(true))
	cfg := quickConfig(true)
	cfg.Seed = cfg.Seed + 1
	b := runQuick(t, cfg)
	if a.Events == b.Events && a.PacketsOffered == b.PacketsOffered {
		t.Error("adjacent seeds should produce different sample paths")
	}
}

// TestOneGroupRunWindows pins that New's one-group simulator never falls back
// to lookahead-sized windows: the shard engine advances its single calendar
// in exactly one window per advance target — the warm-up end, each batch end,
// and, with a probe armed, each probe boundary that is not also a batch end.
func TestOneGroupRunWindows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval float64
		want     uint64
	}{
		// quickConfig: warm-up 200 s, then 5 batches of 300 s.
		{"unprobed", 0, 1 + 5},
		// 38 probe windows (37 of 40 s plus the clamped last one); batch ends
		// 500 s and 1100 s fall between probe boundaries.
		{"probed", 40, 1 + 38 + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig(true)
			if tc.interval > 0 {
				cfg.Probe = &probe.Spec{IntervalSec: tc.interval}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := s.ShardStats(); got.Windows != tc.want || got.MergedMessages != 0 {
				t.Errorf("%+v, want %d windows and no merged messages", got, tc.want)
			}
			if ser := s.Series(); tc.interval > 0 && ser.Windows() != 38 {
				t.Errorf("%d probe windows sampled, want 38", ser.Windows())
			}
		})
	}
}
