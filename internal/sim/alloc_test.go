// Allocation-budget pins for the steady-state event hot path. The tests are
// excluded from race builds: race instrumentation inserts allocations of its
// own, which would fail the budgets spuriously.
//
//go:build !race

package sim

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/traffic"
)

// allocPinConfig is the steady-state workload of the allocation pins:
// uniform constant load, no time-varying profiles. tcpPath selects between
// the open-loop traffic model and the closed-loop TCP transfers — both are
// under the allocation-free contract: connection records, their per-segment
// bookkeeping slices, and the segment/ACK transit hops are pooled per cell
// like every other model record.
func allocPinConfig(cells int, tcpPath bool) Config {
	topo, err := cluster.Preset(cells)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.EnableTCP = tcpPath
	cfg.Seed = 7
	return cfg
}

// measureAllocsPerEvent advances the engine repeatedly by the given window
// and reports (allocations per event, events per window). The first advance
// inside AllocsPerRun is a warm-up run, which tops the freelists up to the
// steady-state population before measurement starts.
func measureAllocsPerEvent(t *testing.T, advance func(to float64), processed func() uint64,
	start, window float64) (float64, float64) {
	t.Helper()
	const runs = 5
	now := start
	before := processed()
	perRun := testing.AllocsPerRun(runs, func() {
		now += window
		advance(now)
	})
	events := processed() - before
	if events == 0 {
		t.Fatal("degenerate steady state: no events processed")
	}
	eventsPerRun := float64(events) / (runs + 1) // AllocsPerRun adds one warm-up run
	return perRun / eventsPerRun, eventsPerRun
}

// pinEngine builds the pin workload cfg on New's one-group simulator when
// shards is 0, and on NewSharded with that many workers otherwise, and starts
// its cells.
func pinEngine(t *testing.T, cfg Config, shards int) *Simulator {
	t.Helper()
	build := New
	if shards > 0 {
		build = func(cfg Config) (*Simulator, error) { return NewSharded(cfg, ShardedOptions{Shards: shards}) }
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.cells {
		c.start()
	}
	return s
}

// advanceEngine returns an advance function for measureAllocsPerEvent that
// drives s's shard engine.
func advanceEngine(t *testing.T, s *Simulator) func(to float64) {
	return func(to float64) {
		if err := s.engine.AdvanceTo(to); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSerialSteadyStateAllocs pins the tentpole contract on the serial
// engine: after warm-up, the event hot path performs (essentially) zero
// allocations per event — on the open-loop path and on the TCP path, which
// pools connection and transit records per cell. The epsilon tolerates
// freelist growth at new concurrent-population peaks (including a connection
// record's per-segment slices growing to a new largest transfer) — O(peak),
// not O(events).
func TestSerialSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tcpPath bool
	}{{"openloop", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := pinEngine(t, allocPinConfig(7, tc.tcpPath), 0)
			cal := s.groups[0].eng
			cal.RunUntil(2000) // reach steady state, grow every pool to its peak
			perEvent, eventsPerRun := measureAllocsPerEvent(t,
				func(to float64) { cal.RunUntil(to) },
				cal.ProcessedEvents, 2000, 500)
			if eventsPerRun < 1000 {
				t.Fatalf("only %.0f events per window; the pin would be vacuous", eventsPerRun)
			}
			if perEvent > 0.001 {
				t.Errorf("serial hot path allocates %.5f allocs/event (%.0f events/window), want 0",
					perEvent, eventsPerRun)
			}
		})
	}
}

// TestProbeArmedSteadyStateAllocs pins the observability contract of the
// probe layer: with the time-series probes armed — shadow gauges live on
// every cell, the sampler recording a window every 25 s — the steady-state
// hot path must stay within the same (essentially zero) allocation budget as
// the unprobed engines. All series buffers are preallocated at arm time, so
// sampling appends within capacity and the shadow gauge updates are plain
// field writes. Checked on New's one-group simulator and on NewSharded with
// one worker, both advanced on the calling goroutine, where the budget is
// exact.
func TestProbeArmedSteadyStateAllocs(t *testing.T) {
	const start, window = 2000.0, 500.0
	const final = start + 6*window // one warm-up run plus 5 measured runs
	cfg := allocPinConfig(7, false)
	cfg.Probe = &probe.Spec{IntervalSec: 25}
	for _, e := range []struct {
		name string
		s    *Simulator
	}{{"serial", pinEngine(t, cfg, 0)}, {"sharded1", pinEngine(t, cfg, 1)}} {
		if err := e.s.advanceProbed(start); err != nil {
			t.Fatal(err)
		}
		e.s.pstate.arm(start, final)
		perEvent, eventsPerRun := measureAllocsPerEvent(t,
			func(to float64) {
				if err := e.s.advanceProbed(to); err != nil {
					t.Fatal(err)
				}
			},
			e.s.processedEvents, start, window)
		if eventsPerRun < 1000 {
			t.Fatalf("%s: only %.0f events per window; the pin would be vacuous", e.name, eventsPerRun)
		}
		if perEvent > 0.001 {
			t.Errorf("%s: probe-armed hot path allocates %.5f allocs/event (%.0f events/window), want 0",
				e.name, perEvent, eventsPerRun)
		}
		if got, want := e.s.pstate.series.Windows(), int(final-start)/25; got != want {
			t.Fatalf("%s: %d windows sampled, want %d", e.name, got, want)
		}
	}
}

// TestQueuedHandoverSteadyStateAllocs pins the allocation contract on the
// queued-handover policy path: the overloaded pin workload keeps every cell
// saturated, so handovers are parked, served, and expired continuously, and
// the queue entries must flow through the per-cell freelist (getQHO/putQHO)
// without per-event allocations — on the serial engine and on both sharded
// layouts. The warm-up advance grows each cell's queue backing array and
// entry pool to its bounded peak (QueueCapacity) before measurement starts.
func TestQueuedHandoverSteadyStateAllocs(t *testing.T) {
	cfg := allocPinConfig(7, false)
	cfg.Policy = &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}
	for _, e := range []struct {
		name string
		s    *Simulator
	}{{"serial", pinEngine(t, cfg, 0)}, {"sharded1", pinEngine(t, cfg, 1)}, {"sharded4", pinEngine(t, cfg, 4)}} {
		advance := advanceEngine(t, e.s)
		advance(2000)
		perEvent, eventsPerRun := measureAllocsPerEvent(t, advance, e.s.processedEvents, 2000, 500)
		if eventsPerRun < 1000 {
			t.Fatalf("%s: only %.0f events per window; the pin would be vacuous", e.name, eventsPerRun)
		}
		if perEvent > 0.001 {
			t.Errorf("%s: queued-handover hot path allocates %.5f allocs/event (%.0f events/window), want 0",
				e.name, perEvent, eventsPerRun)
		}
		var queued, served, expired int64
		for _, c := range e.s.cells {
			queued += c.n[probe.HandoversQueued]
			served += c.n[probe.HandoverQueueServed]
			expired += c.n[probe.HandoverQueueExpired]
		}
		if queued == 0 || served == 0 || expired == 0 {
			t.Errorf("%s: queue path idle during the pin (queued %d, served %d, expired %d); the pin would be vacuous",
				e.name, queued, served, expired)
		}
	}
}

// TestShardedSteadyStateAllocs pins the same contract on NewSharded's
// simulator, advanced through the shard engine. Shards=1 resolves to one
// group advanced on the calling goroutine, where the budget is exact; the
// 4-shard layout adds conservative windows, outbox buffering, barrier merge,
// pooled cross-group transit records, and the worker fan-out, whose
// per-AdvanceTo setup (channels, goroutines) is amortized over the thousands
// of events each advance processes.
func TestShardedSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tcpPath bool
	}{{"openloop", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				s := pinEngine(t, allocPinConfig(7, tc.tcpPath), shards)
				advance := advanceEngine(t, s)
				advance(2000)
				perEvent, eventsPerRun := measureAllocsPerEvent(t, advance, s.processedEvents, 2000, 500)
				if eventsPerRun < 1000 {
					t.Fatalf("%d shards: only %.0f events per window; the pin would be vacuous", shards, eventsPerRun)
				}
				if perEvent > 0.001 {
					t.Errorf("%d shards: sharded hot path allocates %.5f allocs/event (%.0f events/window), want 0",
						shards, perEvent, eventsPerRun)
				}
			}
		})
	}
}

// TestReplicationRunBytesPerEvent pins the bytes one DefaultConfig(Model3,
// 0.5) replication's Run allocates per processed event: perfbench's
// sim.bytes_per_event, which counts the Run calls alone. Run allocates only
// while the cells' record pools and per-connection flags grow towards their
// peak population; packets live in rings allocated by New, and each segment
// carries its own send time. That layout measures 0.028 B/event; a
// per-connection send-time table and a buffer of pooled packet pointers
// measured 0.081, which the bound rejects.
func TestReplicationRunBytesPerEvent(t *testing.T) {
	s, err := New(DefaultConfig(traffic.Model3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := s.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
	if perEvent > 0.05 {
		t.Errorf("Run allocates %.4f B/event over %d events, want <= 0.05", perEvent, res.Events)
	}
}
