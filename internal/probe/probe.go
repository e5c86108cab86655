// Package probe is the in-run instrumentation layer of the repository: it
// declares the simulator's per-cell event counters and time-weighted gauges
// once (Counters, Gauges), defines the deterministic sim-time series the
// engines can record while a run is in flight (Spec, Series), the wall-clock
// runtime metrics every layer publishes through atomic counters (Runtime),
// and the live telemetry endpoint serving net/http/pprof and expvar
// snapshots (ServeTelemetry).
//
// # Counters
//
// Each row of Counters names one per-cell counter and, when the series
// samples it, its column in both exports. The simulator keeps the counters
// of a cell in one array indexed by Counter, and every consumer — snapshots
// and deltas in internal/sim, the series buffers, CSV header and rows, and
// JSON lines here, the replication merge in internal/runner — loops over the
// table. A new counter is one row plus its increment site; only a counter
// reported per cell also needs a sim.CellMeasures field and its case in
// CellMeasures.Counter.
//
// # Gauges
//
// Each row of Gauges names one per-cell time-weighted gauge (PDCHs in use,
// buffer occupancy, busy voice channels, active sessions) and the series
// column of its cumulative time average. The simulator keeps the
// accumulators of a cell in one array indexed by Gauge, updated through one
// helper that also feeds the armed probe's shadow copy, and the batch
// windows, the shadows, the per-cell report, the series buffers
// (CellSeries.Means) and both exports loop over the table. A new gauge is
// one row plus its update sites in internal/sim, and a sim.CellMeasures and
// a sim.CellIntervals field with their row in the per-cell measure table,
// whose first NumGauges rows are the gauges in Gauge order.
//
// # Determinism contract
//
// Arming a probe must never change a single bit of any simulation result.
// Three mechanisms combine to guarantee this, mirroring the engine
// contracts of internal/shard and internal/des:
//
//   - No model events, no model draws: sampling schedules nothing on any
//     event calendar and draws nothing from any random variate stream. The
//     measurement loop of internal/sim advances the engine to the probe
//     window boundaries between batch boundaries — a pure repartitioning of
//     the advance targets, which the engine executes identically (each group
//     calendar pops the same total order either way, and the conservative
//     windows deliver the same messages in the same merged order).
//
//   - Shadow accumulators: the windowed time averages come from probe-owned
//     copies of the per-cell time-weighted statistics, updated alongside
//     the model's own accumulators. The model accumulators are never read
//     mid-run — reading them would advance their internal integrals and
//     change the float accumulation sequence of the terminal aggregates by
//     ulps (stats.TimeWeighted.Mean mutates; the probes use the
//     non-mutating MeanAt on their shadows instead).
//
//   - Out-of-band results: the recorded Series travels next to sim.Results,
//     never inside it, so golden result digests are bit-identical with
//     probes armed or disarmed. TestGoldenResultDigestsProbesArmed pins
//     this for every scenario preset at one and at four shards.
//
// The armed sampler path is allocation-free: every series buffer is
// preallocated to its full window capacity when the probe is armed (once per
// run), and sampling appends into that capacity. The allocation pins of
// internal/sim hold the armed path to the same <= 0.001 allocs/event budget
// as the bare engines.
package probe

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidSpec is returned for malformed probe specifications.
var ErrInvalidSpec = errors.New("probe: invalid spec")

// maxWindows bounds the preallocated series capacity per run; a spec whose
// interval would produce more windows is rejected at validation time rather
// than silently truncated or allowed to exhaust memory.
const maxWindows = 1 << 20

// Spec configures the sim-time series probe of one run: the engines sample
// every cell at fixed sim-time window boundaries of IntervalSec, recording
// counters cumulative since the measurement start plus instantaneous and
// time-averaged gauges. The final window is clamped to the measurement end,
// so the last sample always coincides with the terminal aggregates.
type Spec struct {
	// IntervalSec is the sampling window length in simulated seconds. It
	// must be positive and finite.
	IntervalSec float64
}

// Validate reports whether the spec is well formed for a run measuring
// measurementSec simulated seconds.
func (s Spec) Validate(measurementSec float64) error {
	if s.IntervalSec <= 0 || math.IsNaN(s.IntervalSec) || math.IsInf(s.IntervalSec, 0) {
		return fmt.Errorf("%w: interval %v s", ErrInvalidSpec, s.IntervalSec)
	}
	if measurementSec > 0 && measurementSec/s.IntervalSec > maxWindows {
		return fmt.Errorf("%w: interval %v s over %v s yields more than %d windows",
			ErrInvalidSpec, s.IntervalSec, measurementSec, maxWindows)
	}
	return nil
}

// Windows returns the preallocation capacity for a run measuring
// measurementSec simulated seconds: the regular windows plus one clamped
// final window.
func (s Spec) Windows(measurementSec float64) int {
	return int(measurementSec/s.IntervalSec) + 2
}

// Series is the recorded sim-time series of one run: one sample per window
// boundary, for every cell of the cluster. Counters are cumulative since the
// measurement start (per-window deltas telescope exactly back to the
// terminal totals); the time-averaged gauges are cumulative means over
// [StartSec, Times[k]], so the final sample of every counter and (non-mid)
// gauge reproduces the corresponding terminal PerCell aggregate bit for bit.
type Series struct {
	// IntervalSec is the nominal window length the series was sampled at.
	IntervalSec float64
	// StartSec is the measurement start (end of the warm-up) in simulated
	// seconds; the first window covers [StartSec, Times[0]].
	StartSec float64
	// Times holds the window-end sample times in simulated seconds. The last
	// entry is the measurement end exactly.
	Times []float64
	// Cells holds one series per cell, indexed by cell id.
	Cells []CellSeries
}

// Windows returns the number of recorded windows.
func (s *Series) Windows() int { return len(s.Times) }

// CellSeries is the per-cell slice of a Series: every slice is indexed like
// Series.Times. Counts and DelaySumSec are cumulative since the measurement
// start; QueueLen, VoiceCalls and Sessions are instantaneous values at the
// window end; Means holds cumulative time-weighted averages over
// [Series.StartSec, window end].
type CellSeries struct {
	// Cell is the cell id.
	Cell int

	// Counts holds the cumulative value of every sampled counter (see
	// Counter.Sampled), indexed by Counter; the slices of the other counters
	// are nil.
	Counts [NumCounters][]int64
	// DelaySumSec is the cumulative queueing delay of delivered packets.
	DelaySumSec []float64

	// QueueLen, VoiceCalls and Sessions are instantaneous occupancy gauges
	// at the window end.
	QueueLen, VoiceCalls, Sessions []int

	// Means holds the cumulative time-weighted mean of every gauge, indexed
	// by Gauge.
	Means [NumGauges][]float64
}

// NewSeries allocates a series for the given cell count with every buffer
// preallocated to capacity windows, so recording samples never allocates.
func NewSeries(cells int, intervalSec, startSec float64, capacity int) *Series {
	s := &Series{
		IntervalSec: intervalSec,
		StartSec:    startSec,
		Times:       make([]float64, 0, capacity),
		Cells:       make([]CellSeries, cells),
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		c.Cell = i
		for k := range NumCounters {
			if k.Sampled() {
				c.Counts[k] = make([]int64, 0, capacity)
			}
		}
		c.DelaySumSec = make([]float64, 0, capacity)
		c.QueueLen = make([]int, 0, capacity)
		c.VoiceCalls = make([]int, 0, capacity)
		c.Sessions = make([]int, 0, capacity)
		for g := range c.Means {
			c.Means[g] = make([]float64, 0, capacity)
		}
	}
	return s
}
