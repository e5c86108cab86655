package sim

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/shard"
	"repro/internal/traffic"
)

// ShardedOptions configures how NewSharded groups and schedules the cells.
type ShardedOptions struct {
	// Shards is the number of workers advancing cell groups in parallel; the
	// zero value means min(NumCPU, number of groups). It also sets the
	// default group count when Config.Partition does not pin one. Neither
	// the worker count nor the grouping ever affects results — a given
	// (seed, configuration) is bit-identical for every partitioning and
	// worker count, the one-group simulator of New included.
	Shards int
	// Limiter, when non-nil, bounds the shard workers together with outer
	// fan-outs (typically the replication pool's shared runner.Limiter), so
	// shard-level and replication-level parallelism compose under one global
	// worker bound.
	Limiter shard.Limiter
}

// Simulator runs the detailed network-level model of the GSM/GPRS cluster.
// The cells are split into partition groups (internal/partition); the cells
// of one group share one event calendar and interact directly on it, and the
// shard engine advances the groups in conservative time windows, carrying
// only cross-group handovers as barrier messages. New builds the one-group
// simulator, whose single calendar the shard engine advances straight to
// each target time; NewSharded builds several groups advanced in parallel.
//
// The window length (synchronization lookahead) is the handover latency:
// handovers are the only cross-cell interaction, and a handover decided at
// time t takes effect at t + HandoverLatencySec, so no message can arrive
// inside the window that produced it. Cross-group handovers are merged
// deterministically by (timestamp, source group, sequence number), and every
// cell draws from its own random variate substreams, so the results are
// bit-identical for every partitioning, worker count, and shard layout.
//
// A Simulator is single-use: run it once with Run. For independent
// replications merged into cross-replication confidence intervals use the
// runner package.
type Simulator struct {
	config Config
	bpp    int
	cells  []*cell
	groups []*groupProc
	part   *partition.Assignment
	engine *shard.Engine
	pstate *probeState
}

// groupProc adapts one cell group (with its shared calendar) to the shard
// engine's Process interface, buffering outbound cross-group handovers until
// the window barrier.
type groupProc struct {
	id     int
	eng    *des.Simulation
	outbox []shard.Message
	seq    uint64

	// free recycles handover transit records. A record is acquired from the
	// source group's pool at dispatch and released into the destination
	// group's pool when its delivery fires — each pool is only ever touched
	// by the goroutine currently advancing its group (or by the barrier), so
	// no locking is needed. Intra-group handovers acquire and release on the
	// same pool.
	free freelist[groupTransit]
}

// groupTransit is one handover message in flight between cells. It rides as
// the message Payload (a pointer, so boxing into the interface does not
// allocate); fn is bound to the record once, at first allocation, so
// dispatch and delivery allocate nothing in steady state.
type groupTransit struct {
	grp  *groupProc // pool that receives the record back after delivery
	cell *cell      // destination cell
	msg  handoverMsg
	fn   func()
}

func (p *groupProc) getTransit() *groupTransit {
	if t := p.free.get(); t != nil {
		return t
	}
	t := &groupTransit{}
	t.fn = func() {
		g := t.grp
		t.cell.receive(t.msg)
		t.msg = handoverMsg{}
		t.cell = nil
		t.grp = nil
		g.free.put(t)
	}
	return t
}

// Advance resets the outbox of the previous window (its messages were merged
// at the barrier), runs the group's calendar, and returns the buffered
// messages without copying — the shard engine consumes the slice before this
// group's next Advance call.
func (p *groupProc) Advance(t float64) []shard.Message {
	p.outbox = p.outbox[:0]
	p.eng.RunUntil(t)
	if len(p.outbox) == 0 {
		return nil
	}
	return p.outbox
}

func (p *groupProc) Deliver(m shard.Message) {
	t := m.Payload.(*groupTransit)
	t.grp = p
	if _, err := p.eng.Schedule(m.At, t.fn); err != nil {
		// The shard engine guarantees m.At is at or beyond this group's
		// clock, and Schedule accepts the current time.
		panic(err)
	}
}

// RunOnce builds and runs one simulator to completion: the one-group
// simulator of New, or NewSharded's when opt.Shards > 1. Both are
// bit-identical for a given configuration, so opt affects only how the run is
// scheduled. It is the single engine-selection point shared by cmd/gprs-sim
// and the replication runner.
func RunOnce(cfg Config, opt ShardedOptions) (Results, error) {
	res, _, err := RunOnceSeries(cfg, opt)
	return res, err
}

// RunOnceSeries is RunOnce with the recorded sim-time series returned
// alongside the results. The series is nil when cfg.Probe is unset; the
// Results are bit-identical to RunOnce's either way (the probe's determinism
// contract). Like RunOnce it is single-use per call: it builds a fresh engine.
func RunOnceSeries(cfg Config, opt ShardedOptions) (Results, *probe.Series, error) {
	var s *Simulator
	var err error
	if opt.Shards > 1 {
		s, err = NewSharded(cfg, opt)
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		return Results{}, nil, err
	}
	res, err := s.Run()
	if err != nil {
		return Results{}, nil, err
	}
	return res, s.Series(), nil
}

// New validates the configuration and builds a simulator with all cells in
// one group, on one calendar that the shard engine advances on the calling
// goroutine. It ignores Config.Partition.
func New(cfg Config) (*Simulator, error) {
	return build(cfg, ShardedOptions{Shards: 1}, func(c *Config) (*partition.Assignment, error) {
		return partition.IndexRange(c.Topology.NumCells(), 1)
	})
}

// NewSharded validates the configuration, resolves the cell→group partition,
// and builds a simulator whose Run may use up to opt.Shards goroutines. When
// Config.Partition is nil the cells are grouped by the locality-aware
// partitioner into one group per worker, using the rate profile's integrated
// per-cell load as weights.
func NewSharded(cfg Config, opt ShardedOptions) (*Simulator, error) {
	return build(cfg, opt, func(c *Config) (*partition.Assignment, error) {
		workers := opt.Shards
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		if n := c.Topology.NumCells(); workers > n {
			workers = n
		}
		spec := c.Partition
		if spec == nil {
			spec = &partition.Spec{Kind: partition.KindLocality}
		}
		return spec.Build(c.Topology, cellLoadWeights(*c), workers)
	})
}

// build validates and defaults the configuration, resolves the partition with
// partitionOf (given the defaulted configuration), and constructs one calendar
// per group, the cells on their group's calendar, and the shard engine.
func build(cfg Config, opt ShardedOptions, partitionOf func(*Config) (*partition.Assignment, error)) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{config: cfg.withDefaults()}
	s.bpp = s.config.Channels.Coding.RadioBlocksPerPacket(traffic.PacketSizeBytes)
	if s.bpp < 1 {
		return nil, fmt.Errorf("%w: coding scheme %v yields no radio blocks", ErrInvalidConfig, s.config.Channels.Coding)
	}
	var err error
	if s.part, err = partitionOf(&s.config); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	s.groups = make([]*groupProc, s.part.NumGroups())
	procs := make([]shard.Process, len(s.groups))
	for g := range s.groups {
		s.groups[g] = &groupProc{id: g, eng: des.NewSimulation()}
		procs[g] = s.groups[g]
	}
	s.cells = make([]*cell, s.config.Topology.NumCells())
	for i := range s.cells {
		if s.cells[i], err = newCell(i, s, s.groups[s.part.Of(i)].eng); err != nil {
			return nil, err
		}
	}
	s.engine, err = shard.New(procs, shard.Options{
		Lookahead: s.config.HandoverLatencySec,
		Shards:    opt.Shards,
		Limiter:   opt.Limiter,
		Metrics:   probe.Default,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if s.config.Probe != nil {
		s.pstate = newProbeState(*s.config.Probe, s.cells)
	}
	return s, nil
}

// Partition returns the resolved cell→group assignment of this simulator.
func (s *Simulator) Partition() *partition.Assignment { return s.part }

// GroupEvents returns the events processed so far on every group's calendar,
// indexed by partition group — the per-group load breakdown the telemetry
// registry publishes at run end.
func (s *Simulator) GroupEvents() []uint64 {
	out := make([]uint64, len(s.groups))
	for g, p := range s.groups {
		out[g] = p.eng.ProcessedEvents()
	}
	return out
}

// Series returns the sim-time series recorded by the run, or nil when
// Config.Probe was unset (or Run has not executed yet).
func (s *Simulator) Series() *probe.Series {
	if s.pstate == nil {
		return nil
	}
	return s.pstate.series
}

// ShardStats returns the shard engine's cumulative synchronization counters:
// windows advanced and handover messages merged at window barriers. Only
// cross-group handovers travel as barrier messages (intra-group handovers are
// scheduled directly on the group calendar), so MergedMessages equals the
// cells' summed cross-group handover departures — with a one-cell-per-group
// partition that is every handover departure, and with one group it is zero.
func (s *Simulator) ShardStats() shard.Stats { return s.engine.Stats() }

func (s *Simulator) processedEvents() uint64 {
	var total uint64
	for _, p := range s.groups {
		total += p.eng.ProcessedEvents()
	}
	return total
}

// poolStats sums the event-record pool counters of the group calendars:
// freelist hits, fresh allocations, and currently pooled records.
func (s *Simulator) poolStats() (hits, misses, free uint64) {
	for _, p := range s.groups {
		h, m := p.eng.PoolStats()
		hits += h
		misses += m
		free += uint64(p.eng.FreeEvents())
	}
	return hits, misses, free
}

// dispatch sends a handover message from src to cell dst, taking effect at
// src.now() + HandoverLatencySec. An intra-group handover is scheduled
// directly on the shared group calendar; a cross-group handover is queued on
// the source group's outbox and merged and delivered by the shard engine at
// the next window barrier. The split is invisible to the model.
func (s *Simulator) dispatch(src *cell, dst int, m handoverMsg) {
	sg := s.groups[s.part.Of(src.id)]
	t := sg.getTransit()
	t.cell = s.cells[dst]
	t.msg = m
	at := src.now() + s.config.HandoverLatencySec
	dg := s.part.Of(dst)
	if dg == sg.id {
		t.grp = sg
		if _, err := sg.eng.Schedule(at, t.fn); err != nil {
			// Delays are non-negative and finite by construction; an error
			// here would be a programming bug, not a model condition.
			panic(err)
		}
		return
	}
	sg.seq++
	sg.outbox = append(sg.outbox, shard.Message{
		At:      at,
		Src:     sg.id,
		Dst:     dg,
		Seq:     sg.seq,
		Payload: t,
	})
}

// Run executes warm-up plus the measurement period and returns the mid-cell
// results. On success the pool counters and the per-group event counts are
// published to the process-wide telemetry registry (probe.Default).
func (s *Simulator) Run() (Results, error) {
	cfg := &s.config
	cells := s.cells
	probe.Default.RunsStarted.Add(1)
	for _, c := range cells {
		c.start()
	}

	warmupEnd := cfg.WarmupSec
	if err := s.engine.AdvanceTo(warmupEnd); err != nil {
		return Results{}, err
	}

	mid := cells[cluster.MidCell]
	acc := &batchAccumulator{level: cfg.ConfidenceLevel}

	// Reset every cell's measurement window at the end of the warm-up and
	// keep its counter snapshot, so each cell — not only the mid cell — can
	// be reported over the measurement period. Resetting touches only the
	// time-weighted statistics, never the event flow, so mid-cell results are
	// unaffected by the extra bookkeeping.
	start := make([]counters, len(cells))
	for i, c := range cells {
		start[i] = c.resetBatchWindow(warmupEnd)
	}
	snap := start[cluster.MidCell]

	batchDur := cfg.MeasurementSec / float64(cfg.Batches)
	// Arm the probe (when configured) over the exact measurement span the
	// batch loop will cover: the final batch end below computes the same
	// float expression, so the probe's clamped last window coincides with the
	// terminal aggregates bit for bit.
	if s.pstate != nil {
		s.pstate.arm(warmupEnd, warmupEnd+float64(cfg.Batches)*batchDur)
	}
	// Publish wall-clock progress at coarse boundaries only (warm-up end and
	// batch ends), keeping the event hot path free of atomics.
	lastEvents := s.processedEvents()
	probe.Default.EventsProcessed.Add(lastEvents)
	end := warmupEnd
	snapInt := mid.gaugeIntegralsAt(warmupEnd)
	for b := 1; b <= cfg.Batches; b++ {
		end = warmupEnd + float64(b)*batchDur
		if err := s.advanceProbed(end); err != nil {
			return Results{}, err
		}
		snapInt = mid.finishBatch(acc, snap, snapInt, end, batchDur)
		snap = mid.counters
		cur := s.processedEvents()
		probe.Default.EventsProcessed.Add(cur - lastEvents)
		lastEvents = cur
	}

	res := acc.results()
	res.PerCell = perCellMeasures(cells, start, end, cfg.MeasurementSec)
	m := &res.PerCell[cluster.MidCell]
	res.PacketsOffered, res.PacketsLost, res.PacketsDelivered = m.PacketsOffered, m.PacketsLost, m.PacketsDelivered
	res.HandoversIn, res.HandoversOut = m.HandoversIn, m.HandoversOut
	for _, c := range cells {
		res.TCPTimeouts += c.n[probe.TCPTimeouts]
		res.TCPFastRecovers += c.n[probe.TCPFastRecovers]
	}
	res.SimulatedSec = cfg.MeasurementSec
	res.Events = s.processedEvents()

	hits, misses, free := s.poolStats()
	probe.Default.PoolHits.Add(hits)
	probe.Default.PoolMisses.Add(misses)
	probe.Default.FreeEvents.Store(free)
	probe.Default.SetGroupEvents(s.GroupEvents())
	probe.Default.RunsCompleted.Add(1)
	return res, nil
}

// perCellMeasures assembles the per-cell report at the end of a run from
// each cell's counters since its snapshot in start. Every cell — the mid
// cell included — reports its time-weighted statistics directly over the
// measurement window: windows are reset once, at the end of the warm-up, and
// batch boundaries only read running integrals. The armed probe's shadow
// gauges receive the identical update sequence from the identical start, so
// the final probe window reproduces these gauge values bit for bit (pinned by
// TestSeriesMatchesPerCellAggregates).
func perCellMeasures(cells []*cell, start []counters, end, measurementSec float64) []CellMeasures {
	out := make([]CellMeasures, len(cells))
	for i, c := range cells {
		d := c.counters.minus(start[i])
		m := &out[i]
		m.Cell = i
		for k := range probe.NumCounters {
			if f := m.Counter(k); f != nil {
				*f = d.n[k]
			}
		}
		for g := range c.gauges {
			*m.Measure(CellMeasure(g)) = c.gauges[g].Mean(end)
		}
		m.PacketLossProbability = ratio(float64(m.PacketsLost), m.PacketsOffered)
		m.QueueingDelaySec = ratio(d.delaySum, m.PacketsDelivered)
		m.ThroughputBits = float64(m.PacketsDelivered) * float64(traffic.PacketSizeBits) / measurementSec
		m.GSMBlocking = ratio(float64(d.n[probe.GSMBlocked]), d.n[probe.GSMArrivals])
		m.GPRSBlocking = ratio(float64(d.n[probe.GPRSBlocked]), d.n[probe.GPRSArrivals])
	}
	return out
}
