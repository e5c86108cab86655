// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Figures runs one row of the figure table and
// returns its Figures — named series of a performance measure versus the
// GSM/GPRS call arrival rate — by sweeping the analytical model (and, for
// the validation figures, the detailed simulator) over the paper's parameter
// grid.
//
// All levels of the reproduction parallelize under one worker bound: the
// rows of Figures("all") run concurrently, the model solutions of each row's
// sweep run concurrently, and every simulator point runs
// Options.Sim.Replications independent replications concurrently through the
// runner package. A shared runner.Limiter keeps the total number of in-flight
// CPU-bound tasks at Options.Workers, and every fan-out writes results into
// pre-indexed slots, so the produced figures are identical regardless of the
// worker count.
//
// Two fidelity levels are supported. Full reproduces the paper's parameter
// setting (Table 2: 20 channels, K = 100, the Table 3 session limits) and is
// meant for the command-line harness, where a figure takes minutes to hours
// of CPU. Quick scales the cell down (10 channels, smaller buffer, smaller
// session limit, fewer sweep points, shorter simulation runs) so that the
// complete set of figures regenerates in a few minutes inside `go test
// -bench`; the qualitative shape of every curve (orderings, crossovers,
// saturation behaviour) is preserved.
//
// # Determinism contract
//
// Every produced figure is a pure function of its Options value — the worker
// count, the shard count, and the scheduling of figures, sweep points, and
// replications onto workers change only wall-clock time. The contract
// composes from the layers below, matching internal/shard and
// internal/runner:
//
//   - Model series: a steady-state solution depends only on (configuration,
//     tolerance, iteration bound). The shared cache is single-flight
//     memoization keyed by exactly that triple, so cache hits return the
//     same solution the solver would have produced.
//
//   - Simulator series: every sweep point calls runner.Run, whose summary is
//     bit-identical for a given (Sim.BaseSeed, replication options)
//     regardless of how work is scheduled onto the pool. Adaptive precision
//     mode (Options.Sim.Precision) preserves this per pool width: the
//     stopping decision is a pure function of the merged results after each
//     batch, and the batch boundaries are quantized to the worker bound (the
//     runner's pool-sized growth), so the realized replication count of
//     every point — and with it every plotted value and error bar — is
//     reproducible for a given (options, Workers) pair; pin Workers
//     explicitly to reproduce adaptive sweeps across machines.
//
//   - Assembly: every fan-out writes into a slot pre-indexed by (series,
//     point), errors propagate from the lowest failing index, and series
//     built concurrently are appended in a fixed order afterwards, so figure
//     layout never depends on completion order.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// ErrInvalidOptions is returned for malformed experiment options.
var ErrInvalidOptions = errors.New("experiments: invalid options")

// Fidelity selects the parameter scale of an experiment run.
type Fidelity int

const (
	// Quick runs a scaled-down cell with a coarse sweep (default).
	Quick Fidelity = iota + 1
	// Full runs the paper's parameter setting.
	Full
)

// String returns the fidelity name.
func (f Fidelity) String() string {
	switch f {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// Options controls an experiment run.
type Options struct {
	// Fidelity selects Quick (default) or Full parameters.
	Fidelity Fidelity
	// Workers bounds the number of model solutions computed concurrently;
	// the zero value means runtime.NumCPU().
	Workers int
	// Tolerance is the steady-state solver tolerance; the zero value means
	// 1e-6 at either fidelity.
	Tolerance float64
	// MaxIterations bounds the solver sweeps; the zero value means 20000.
	MaxIterations int
	// WithSimulation adds detailed-simulator series to the validation figures
	// (Fig. 5 and Fig. 6); false skips the simulator to keep runs fast. The
	// hotspot figures plot only simulator series, so Figures fails for them
	// with ErrSimulationOnly when it is false.
	WithSimulation bool
	// SimMeasurementSec overrides the simulated measurement time per point;
	// the zero value means 4000 s for Quick and 20000 s for Full.
	SimMeasurementSec float64
	// Sim holds the replication options of every simulator point: the
	// replication count (the zero value means 3 for Quick and 5 for Full),
	// base seed (replication i of every point runs with
	// runner.SeedFor(Sim.BaseSeed, i)), adaptive stopping, variance
	// reduction and shard count. Its Workers, Limiter, Admission and
	// ConfidenceLevel are ignored: every point draws from the run's shared
	// pools, sized by Workers above, at the simulator configuration's
	// confidence level. Combining VRControl with a Setup.Scenario is an
	// error.
	Sim runner.Options
	// Setup selects the simulated cluster (0 cells is the paper's
	// seven-cell cluster), partitioning, workload scenario and admission
	// policy of every simulator run. The analytical model knows only the
	// symmetric load, so under a non-uniform scenario the simulator series
	// are the reference and the model series keep their symmetric meaning.
	Setup scenario.Setup
	// Progress, when non-nil, receives one event per completed unit of work
	// (a simulated point, a finished row of Figures("all")). Calls are
	// serialized but may arrive in any order.
	Progress func(ev ProgressEvent)

	// limiter is the shared semaphore bounding the number of concurrently
	// active model solutions and simulator runs across every level of
	// parallelism (figures, points, replications). withDefaults installs one
	// sized Workers; Figures("all") hands the same limiter to all rows.
	limiter *runner.Limiter
	// admission bounds how many simulators are live at once when
	// Sim.Shards > 1 (the CPU bound then moves to the shard workers, which
	// draw from limiter; see runner.Options.Admission). Installed by
	// withDefaults and shared across all figures and sweep points of one run.
	admission *runner.Limiter
	// cache memoizes steady-state solutions across all figures sharing this
	// Options value; installed by withDefaults, shared by Figures("all").
	cache *solveCache
	// progressMu serializes Progress calls and emit's completion counts
	// across every fan-out sharing this Options value; set by withDefaults.
	progressMu *sync.Mutex
}

func (o Options) withDefaults() Options {
	if o.Fidelity == 0 {
		o.Fidelity = Quick
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Tolerance <= 0 {
		// A calibration run against a 1e-9 reference solution showed that
		// 1e-6 already reproduces CDT, PLP, QD and ATU to 4-5 significant
		// digits on the full Table 2 state space at roughly half the sweeps.
		o.Tolerance = 1e-6
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 20000
	}
	if o.SimMeasurementSec <= 0 {
		if o.Fidelity == Full {
			o.SimMeasurementSec = 20000
		} else {
			o.SimMeasurementSec = 4000
		}
	}
	if o.Sim.Replications <= 0 {
		if o.Fidelity == Full {
			o.Sim.Replications = 5
		} else {
			o.Sim.Replications = 3
		}
	}
	if o.limiter == nil {
		o.limiter = runner.NewLimiter(o.Workers)
	}
	if o.admission == nil && o.Sim.Shards > 1 {
		o.admission = runner.NewLimiter(o.Workers)
	}
	if o.cache == nil {
		o.cache = newSolveCache()
	}
	if o.progressMu == nil {
		o.progressMu = &sync.Mutex{}
	}
	return o
}

// emit counts one completed unit of work in *done, sets the event's Done to
// the new count and delivers the event if a callback is installed. Calls are
// serialized across every fan-out sharing this Options value, so the counts
// of one fan-out arrive in increasing order.
func (o Options) emit(done *int, ev ProgressEvent) {
	o.progressMu.Lock()
	defer o.progressMu.Unlock()
	*done++
	ev.Done = *done
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// ProgressEvent is one completion event of an experiment run, delivered
// through Options.Progress.
type ProgressEvent struct {
	// Kind discriminates the event: "point" for a completed sweep point,
	// "group" for a completed figure group.
	Kind string `json:"kind"`
	// Figure identifies the figure (point events) or figure group (group
	// events) the unit of work belongs to.
	Figure string `json:"figure"`
	// Done counts completed units of the event's kind: sweep points of the
	// figure, or figure groups of the run.
	Done int `json:"done"`
	// Total counts the planned units of the event's kind.
	Total int `json:"total"`
	// Replications is the realized replication count of a completed point
	// (zero for group events).
	Replications int `json:"replications,omitempty"`
	// Adaptive marks a completed point whose replication count came from the
	// precision-targeted stopping rule rather than a fixed setting.
	Adaptive bool `json:"adaptive,omitempty"`
	// Converged reports whether an adaptive point met its precision target
	// before hitting the replication cap.
	Converged bool `json:"converged,omitempty"`
	// RelativeHalfWidth is the realized relative confidence half-width of
	// the adaptive target measure at a completed point.
	RelativeHalfWidth float64 `json:"relative_half_width,omitempty"`
}

// Series is one curve of a figure: a performance measure versus the total
// call arrival rate.
type Series struct {
	// Label identifies the curve (e.g. "1 PDCH", "eta = 0.7", "simulation").
	Label string
	// X holds the call arrival rates (calls/s).
	X []float64
	// Y holds the measure values.
	Y []float64
	// YErr optionally holds confidence half-widths (simulator series only).
	YErr []float64
}

// Figure is a reproduced figure: a set of series over a common x axis.
type Figure struct {
	// ID is the figure identifier used for file names (e.g. "fig08_plp_tm1").
	ID string
	// Title describes the figure.
	Title string
	// XLabel and YLabel name the axes.
	XLabel string
	YLabel string
	// Series holds the curves.
	Series []Series
}

// rateAxis is the x label of every model figure.
const rateAxis = "GSM/GPRS call arrival rate (1/s)"

// callRates returns the arrival-rate sweep of the experiments.
func callRates(f Fidelity) []float64 {
	if f == Full {
		return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	return []float64{0.1, 0.3, 0.6, 1.0}
}

// baseConfig returns the analytical-model configuration for the experiment
// fidelity: the paper's Table 2 setting for Full, a proportionally
// scaled-down cell for Quick.
func baseConfig(f Fidelity, model traffic.Model, rate float64) core.Config {
	cfg := core.BaseConfig(model, rate)
	if f != Full {
		quickCell(&cfg.Channels.TotalChannels, &cfg.BufferSize, &cfg.MaxSessions)
	}
	return cfg
}

// quickCell scales a cell to Quick fidelity: half the channels, a smaller
// BSC buffer and session limit. The offered load per channel stays
// comparable, so the curves keep their shape while the state space shrinks
// by roughly two orders of magnitude.
func quickCell(channels, buffer, sessions *int) {
	*channels, *buffer, *sessions = 10, 30, min(*sessions, 10)
}

// simConfig mirrors baseConfig for the detailed simulator.
func simConfig(o Options, model traffic.Model, rate float64) sim.Config {
	cfg := sim.DefaultConfig(model, rate)
	if o.Fidelity != Full {
		quickCell(&cfg.Channels.TotalChannels, &cfg.BufferSize, &cfg.MaxSessions)
		cfg.WarmupSec = 500
		cfg.Batches = 5
	}
	cfg.MeasurementSec = o.SimMeasurementSec
	return cfg
}

// solvePoint builds and solves the analytical model for one configuration;
// Model.Solve fails when the solve did not converge, so no unconverged point
// reaches a figure. It memoizes (configuration, tolerance) pairs in the run's
// shared cache so figures sweeping overlapping parameter grids reuse
// solutions instead of re-solving.
func solvePoint(cfg core.Config, o Options) (core.Measures, error) {
	key := solveKey{cfg: cfg, tolerance: o.Tolerance, maxIterations: o.MaxIterations}
	return o.cache.solve(key, func() (core.Measures, error) {
		model, err := core.New(cfg)
		if err != nil {
			return core.Measures{}, err
		}
		res, err := model.Solve(ctmc.SolveOptions{
			Tolerance:     o.Tolerance,
			MaxIterations: o.MaxIterations,
		})
		if err != nil {
			return core.Measures{}, err
		}
		return res.Measures, nil
	})
}

// simulateSweep runs the replicated detailed simulator over the rate grid and
// returns one merged summary per point. Points run concurrently and each
// point's replications run concurrently, all bounded by the shared limiter;
// the outer fan-outs hold no limiter tokens themselves, so nesting cannot
// deadlock. mutate, when non-nil, adjusts the per-point configuration (e.g.
// the GPRS fraction). The summaries are bit-identical for a given Sim
// regardless of the worker count.
func simulateSweep(o Options, figID string, model traffic.Model, rates []float64, mutate func(*sim.Config)) ([]runner.Summary, error) {
	sums := make([]runner.Summary, len(rates))
	done := 0
	err := runner.ForEach(nil, len(rates), func(i int) error {
		cfg := simConfig(o, model, rates[i])
		if mutate != nil {
			mutate(&cfg)
		}
		// Applied after mutate so the scenario picks up per-figure rate
		// splits (e.g. a mutated GPRS fraction) through BaseRates.
		if _, err := o.Setup.Apply(&cfg); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
		ro := o.Sim
		ro.Limiter = o.limiter
		ro.Admission = o.admission
		ro.ConfidenceLevel = cfg.ConfidenceLevel
		sum, err := runner.Run(cfg, ro)
		if err != nil {
			return fmt.Errorf("simulation at rate %g: %w", rates[i], err)
		}
		sums[i] = sum
		o.emit(&done, ProgressEvent{
			Kind:              "point",
			Figure:            figID,
			Total:             len(rates),
			Replications:      sum.Replications,
			Adaptive:          sum.Adaptive,
			Converged:         sum.Converged,
			RelativeHalfWidth: sum.RelativeHalfWidth,
		})
		return nil
	})
	return sums, err
}

// seriesFromSummaries builds a simulator series of measure m from per-point
// summaries: the point estimate is the cross-replication mean and YErr its
// confidence half-width.
func seriesFromSummaries(label string, rates []float64, sums []runner.Summary, m sim.Measure) Series {
	s := newSeries(label, rates)
	s.YErr = make([]float64, len(rates))
	for i := range sums {
		iv := sums[i].Merged.Interval(m)
		s.Y[i] = iv.Mean
		s.YErr[i] = iv.HalfWidth
	}
	return s
}

// newSeries allocates a series with the given label over the x grid.
func newSeries(label string, x []float64) Series {
	return Series{
		Label: label,
		X:     append([]float64(nil), x...),
		Y:     make([]float64, len(x)),
	}
}
