// Benchmarks regenerating every table and figure of the paper's evaluation
// section (Section 5). Each benchmark runs the corresponding experiment at
// quick fidelity (scaled-down cell, coarse arrival-rate sweep) so the whole
// suite completes in minutes; cmd/gprs-experiments -full reproduces the
// paper-resolution figures. The reported metrics include the number of model
// solutions ("solves") per figure.
package repro_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// benchOptions are the quick-fidelity options used by every figure benchmark.
func benchOptions() experiments.Options {
	return experiments.Options{
		Fidelity:          experiments.Quick,
		Tolerance:         1e-6,
		WithSimulation:    false,
		SimMeasurementSec: 600,
	}
}

func reportSolves(b *testing.B, figs []experiments.Figure) {
	b.Helper()
	var solves int
	for _, f := range figs {
		for _, s := range f.Series {
			solves += len(s.X)
		}
	}
	b.ReportMetric(float64(solves), "solves/op")
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

// BenchmarkFig5ThresholdCalibration regenerates Fig. 5 (PLP vs eta, including
// a short detailed-simulator run with TCP).
func BenchmarkFig5ThresholdCalibration(b *testing.B) {
	opts := benchOptions()
	opts.WithSimulation = true
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5ThresholdCalibration(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, []experiments.Figure{fig})
	}
}

// BenchmarkFig6Validation regenerates Fig. 6 (model vs simulator, CDT and
// ATU).
func BenchmarkFig6Validation(b *testing.B) {
	opts := benchOptions()
	opts.WithSimulation = true
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig6Validation(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig7CDT regenerates Fig. 7 (CDT, traffic models 1 and 2).
func BenchmarkFig7CDT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig7CDT(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig8PLP regenerates Fig. 8 (PLP, traffic models 1 and 2).
func BenchmarkFig8PLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig8PLP(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig9QD regenerates Fig. 9 (queueing delay, traffic models 1 and 2).
func BenchmarkFig9QD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig9QD(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig10SessionLimit regenerates Fig. 10 (CDT and GPRS session
// blocking for different session limits M).
func BenchmarkFig10SessionLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig10SessionLimit(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig11TwoPercent regenerates Fig. 11 (CDT and ATU, 2% GPRS users).
func BenchmarkFig11TwoPercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig11TwoPercent(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig12FivePercent regenerates Fig. 12 (CDT and ATU, 5% GPRS users).
func BenchmarkFig12FivePercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig12FivePercent(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig13TenPercent regenerates Fig. 13 (CDT and ATU, 10% GPRS users).
func BenchmarkFig13TenPercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig13TenPercent(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig14VoiceImpact regenerates Fig. 14 (CVT and voice blocking).
func BenchmarkFig14VoiceImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig14VoiceImpact(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkFig15GPRSPopulation regenerates Fig. 15 (average GPRS users and
// session blocking).
func BenchmarkFig15GPRSPopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig15GPRSPopulation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSolves(b, figs)
	}
}

// BenchmarkHandoverBalancing measures the handover-flow fixed point iteration
// (Eqs. 4-5) in isolation.
func BenchmarkHandoverBalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.HandoverBalancingAblation(traffic.Model1, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "fixedpoint-iters")
	}
}

// BenchmarkModelSolveSingle measures one steady-state solution of the
// quick-fidelity model of traffic model 3 at 0.5 calls/s (the building block
// of every figure). It reports the solver's sweep count as sweeps/op and the
// elapsed time per line solved as ns/line-sweep (the time over sweeps times
// (n, m, r) buffer lines, build and measures included), so a convergence
// regression shows separately from the cost per sweep.
func BenchmarkModelSolveSingle(b *testing.B) {
	cfg := core.BaseConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lines := model.StateSpace().NumStates() / (cfg.BufferSize + 1)
	b.ReportAllocs()
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
}

// BenchmarkGeneratorConstruction measures building the generator of the
// quick-fidelity state space: per-state rates along each (n, m, r) buffer
// line and per-line rates from its neighbour lines.
func BenchmarkGeneratorConstruction(b *testing.B) {
	cfg := core.BaseConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	model, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.BuildGenerator(); err != nil {
			b.Fatal(err)
		}
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
// at the quick-fidelity cell size.
func BenchmarkDetailedSimulator(b *testing.B) {
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
	}
}
