package sim

import (
	"repro/internal/probe"
	"repro/internal/stats"
)

// probeState drives the sim-time series sampling of one run: window
// boundaries, per-cell counter baselines, shadow gauges, and the recorded
// series. It is created at engine construction when Config.Probe is set and
// armed by Simulator.Run at the end of the warm-up.
//
// The shadow gauges are private copies of every cell's time-weighted
// statistics, updated alongside the model's own accumulators at the same
// (time, value) points (cell.setGauge). The probe samples these shadows with
// the non-mutating stats.MeanAt, never the model accumulators — reading those
// mid-run would advance their internal integrals and perturb the terminal
// aggregates by ulps, breaking the bit-identity contract (see the determinism
// contract of package probe). Because the shadows receive exactly the model's
// update sequence from the model's measurement-window start, their final
// MeanAt at the measurement end reproduces every cell's terminal PerCell
// gauges bit for bit — the mid cell included, since batch boundaries
// difference running integrals instead of restarting its gauges.
type probeState struct {
	spec   probe.Spec
	cells  []*cell
	series *probe.Series

	gauges [][probe.NumGauges]stats.TimeWeighted
	base   []counters

	startT, finalT float64
	armed, done    bool
	sampled        int
}

func newProbeState(spec probe.Spec, cells []*cell) *probeState {
	return &probeState{spec: spec, cells: cells}
}

// arm begins recording at the measurement start: it snapshots every cell's
// cumulative counters as baselines, starts the shadow gauges as copies of
// the model accumulators resetBatchWindow just restarted at start, and
// preallocates the full series so sampling never allocates. start and final
// must be the measurement-loop's exact warm-up end and final batch end.
func (ps *probeState) arm(start, final float64) {
	ps.startT, ps.finalT = start, final
	capacity := ps.spec.Windows(final - start)
	ps.series = probe.NewSeries(len(ps.cells), ps.spec.IntervalSec, start, capacity)
	ps.gauges = make([][probe.NumGauges]stats.TimeWeighted, len(ps.cells))
	ps.base = make([]counters, len(ps.cells))
	for i, c := range ps.cells {
		ps.gauges[i] = c.gauges
		c.pr = &ps.gauges[i]
		ps.base[i] = c.counters
	}
	ps.armed = true
}

// nextBoundary returns the next window-end sample time, clamped to the
// measurement end, or ok=false once every window has been sampled (or the
// probe is not armed yet).
func (ps *probeState) nextBoundary() (t float64, ok bool) {
	if !ps.armed || ps.done {
		return 0, false
	}
	t = ps.startT + float64(ps.sampled+1)*ps.spec.IntervalSec
	if t >= ps.finalT {
		t = ps.finalT
	}
	return t, true
}

// sample records one window at time t (every cell's engine clock is at t).
// All appends land in preallocated capacity: the armed sampler path performs
// no allocations.
func (ps *probeState) sample(t float64) {
	s := ps.series
	s.Times = append(s.Times, t)
	for i, c := range ps.cells {
		cs := &s.Cells[i]
		d := c.counters.minus(ps.base[i])
		for k := range probe.NumCounters {
			if k.Sampled() {
				cs.Counts[k] = append(cs.Counts[k], d.n[k])
			}
		}
		cs.DelaySumSec = append(cs.DelaySumSec, d.delaySum)
		cs.QueueLen = append(cs.QueueLen, c.queuedPackets())
		cs.VoiceCalls = append(cs.VoiceCalls, c.voiceCalls)
		cs.Sessions = append(cs.Sessions, c.sessions)
		for g := range cs.Means {
			cs.Means[g] = append(cs.Means[g], ps.gauges[i][g].MeanAt(t))
		}
	}
	ps.sampled++
	if t == ps.finalT {
		ps.done = true
	}
}

// advanceProbed advances the simulator to time `to`, stopping at every
// pending probe window boundary on the way to sample the cells there. With no
// probe configured this is exactly one engine.AdvanceTo(to). The extra
// intermediate advance targets repartition the engine's work without
// changing it: each group calendar pops the same total event order either
// way, and the conservative windows deliver the same messages in the same
// deterministically merged order (pinned empirically by the probes-armed
// column of TestGoldenResultDigests).
func (s *Simulator) advanceProbed(to float64) error {
	if ps := s.pstate; ps != nil {
		for {
			t, ok := ps.nextBoundary()
			if !ok || t > to {
				break
			}
			if err := s.engine.AdvanceTo(t); err != nil {
				return err
			}
			ps.sample(t)
		}
	}
	return s.engine.AdvanceTo(to)
}
