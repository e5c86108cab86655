// Benchmarks regenerating every table and figure of the paper's evaluation
// section (Section 5). Each benchmark runs the corresponding experiment at
// quick fidelity (scaled-down cell, coarse arrival-rate sweep) so the whole
// suite completes in minutes; cmd/gprs-experiments -full reproduces the
// paper-resolution figures. The figure benchmarks report the number of
// plotted points per figure row.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/erlang"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// benchOptions are the quick-fidelity options of every figure benchmark:
// short simulator series for Figs. 5-6 and the hotspot set, on the paper's
// seven-cell cluster.
func benchOptions() experiments.Options {
	return experiments.Options{
		Fidelity:          experiments.Quick,
		Tolerance:         1e-6,
		WithSimulation:    true,
		SimMeasurementSec: 600,
		Setup:             scenario.Setup{Cells: 7},
	}
}

// BenchmarkTable2BaseParameters regenerates Table 2 (base parameter setting).
func BenchmarkTable2BaseParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableBaseParameters()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3TrafficModels regenerates Table 3 (traffic models).
func BenchmarkTable3TrafficModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableTrafficModels()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigures regenerates each figure row of the evaluation section,
// one sub-benchmark per name, and reports the plotted points per run as
// points/op.
func BenchmarkFigures(b *testing.B) {
	for _, name := range experiments.FigureNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figs, err := experiments.Figures(name, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				var points int
				for _, f := range figs {
					for _, s := range f.Series {
						points += len(s.X)
					}
				}
				b.ReportMetric(float64(points), "points/op")
			}
		})
	}
}

// BenchmarkHandoverBalancing measures the GPRS handover-flow fixed point
// (Eqs. 4-5) in isolation, for traffic model 1 at 0.5 calls/s with the
// quick-fidelity session limit and the model's default tolerance.
func BenchmarkHandoverBalancing(b *testing.B) {
	cfg := core.BaseConfig(traffic.Model1, 0.5)
	cfg.MaxSessions = 10
	r := cfg.DeriveRates()
	for i := 0; i < b.N; i++ {
		res, err := erlang.BalanceHandover(r.NewGPRSSessionRate, r.GPRSServiceRate, r.GPRSHandoverRate, cfg.MaxSessions, 1e-12, 10000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "fixedpoint-iters")
	}
}

// bytesPerState reports the bytes allocated since before, over b.N
// operations on the given number of states, as B/state.
func bytesPerState(b *testing.B, before *runtime.MemStats, states int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*states), "B/state")
}

// BenchmarkModelSolveSingle measures one steady-state solution of the
// quick-fidelity model of traffic model 3 at 0.5 calls/s (the building block
// of every figure). It reports the solver's sweep count as sweeps/op and the
// elapsed time per line solved as ns/line-sweep (the time over sweeps times
// (n, m, r) buffer lines, build and measures included), so a convergence
// regression shows separately from the cost per sweep, and the bytes a
// solve allocates per state as B/state.
func BenchmarkModelSolveSingle(b *testing.B) {
	cfg := core.BaseConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lines := cfg.NumStates() / (cfg.BufferSize + 1)
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	sweeps := 0
	for i := 0; i < b.N; i++ {
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		sweeps += res.Solver.Iterations
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sweeps*lines), "ns/line-sweep")
	bytesPerState(b, &before, cfg.NumStates())
}

// BenchmarkGeneratorConstruction measures building the generator from the
// model's rate rows, declared once per GSM call count n (service) and per n
// and number of on sessions (offered packets), and its (n, m, r) buffer
// lines, each described once by Table 1: the rows it names for its rates up
// and down the line, and its rates to its neighbour lines. It runs on the quick-fidelity state space and on the
// Table 2 base points of traffic models 3 (466,620 states) and 1 (2,678,520
// states), and reports the build time per state as ns/state and the bytes
// a build allocates per state as B/state.
func BenchmarkGeneratorConstruction(b *testing.B) {
	quick := core.BaseConfig(traffic.Model3, 0.5)
	quick.Channels.TotalChannels = 10
	quick.BufferSize = 30
	quick.MaxSessions = 10
	for _, bc := range []struct {
		name string
		cfg  core.Config
	}{
		{"quick", quick},
		{"table2-model3", core.BaseConfig(traffic.Model3, 0.5)},
		{"table2-model1", core.BaseConfig(traffic.Model1, 0.5)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			model, err := core.New(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.BuildGenerator(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.cfg.NumStates()), "ns/state")
			bytesPerState(b, &before, bc.cfg.NumStates())
		})
	}
}

// BenchmarkReplicatedSimulator measures the replication engine: 8
// independent replications of a short quick-fidelity run fanned out across
// all CPUs and merged into cross-replication confidence intervals.
func BenchmarkReplicatedSimulator(b *testing.B) {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 200
	cfg.MeasurementSec = 1000
	cfg.Batches = 5
	for i := 0; i < b.N; i++ {
		sum, err := runner.Run(cfg, runner.Options{Replications: 8, BaseSeed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sum.Merged.Events)/float64(sum.Merged.SimulatedSec), "events/simulated-s")
	}
}

// BenchmarkSimulatorConstruction measures sim.New, whose cost is mostly the
// seeding of four variate streams per cell: "7-cell" builds the eight
// replications of `gprs-sim -replications 8 -seed 1` on the default 7-cell
// cluster, "169-cell" one replication on cluster.Preset(169). Each reports
// the construction time per stream as µs/stream.
func BenchmarkSimulatorConstruction(b *testing.B) {
	topo, err := cluster.Preset(169)
	if err != nil {
		b.Fatal(err)
	}
	big := sim.DefaultConfig(traffic.Model3, 0.5)
	big.Topology = topo
	for _, bc := range []struct {
		name         string
		cfg          sim.Config
		cells, seeds int
	}{
		{"7-cell", sim.DefaultConfig(traffic.Model3, 0.5), 7, 8},
		{"169-cell", big, 169, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := range bc.seeds {
					cfg := bc.cfg
					cfg.Seed = runner.SeedFor(1, r)
					if _, err := sim.New(cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			streams := 4 * bc.cells * bc.seeds
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*streams), "µs/stream")
		})
	}
}

// shardedBenchConfig is the 19-cell quick-fidelity configuration shared by
// the serial and sharded variants of BenchmarkShardedSimulator.
func shardedBenchConfig(b *testing.B, seed int64) sim.Config {
	b.Helper()
	topo, err := cluster.Preset(19)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 200
	cfg.MeasurementSec = 1000
	cfg.Batches = 5
	cfg.Seed = seed
	return cfg
}

// BenchmarkShardedSimulator compares one replication of the 19-cell cluster
// on the serial single-calendar engine against the sharded engine with 4 cell
// groups advanced in parallel. Both produce bit-identical results; the
// sub-benchmark ratio is the shard-level speedup.
func BenchmarkShardedSimulator(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := sim.New(shardedBenchConfig(b, int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Events)/float64(res.SimulatedSec), "events/simulated-s")
		}
	})
	b.Run("shards=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := sim.NewSharded(shardedBenchConfig(b, int64(i+1)), sim.ShardedOptions{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Events)/float64(res.SimulatedSec), "events/simulated-s")
		}
	})
}

// BenchmarkDetailedSimulator measures a short detailed-simulator run with TCP
// at the quick-fidelity cell size, and reports the bytes the runs allocate
// per processed event (construction included) as B/event.
func BenchmarkDetailedSimulator(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(traffic.Model3, 0.5)
		cfg.Channels.TotalChannels = 10
		cfg.BufferSize = 30
		cfg.MaxSessions = 10
		cfg.WarmupSec = 200
		cfg.MeasurementSec = 1000
		cfg.Batches = 5
		cfg.Seed = int64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events)/float64(res.SimulatedSec), "events/simulated-s")
		events += res.Events
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/event")
}
