package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/probe"
	"repro/internal/traffic"
)

// engineCore is the common substrate of the serial and the sharded engine:
// a configured set of cells that can be advanced to a simulation time. The
// measurement loop (warm-up, batch windows, totals) is shared between both
// through collectRun.
type engineCore interface {
	conf() *Config
	cellList() []*cell
	advanceTo(t float64) error
	processedEvents() uint64
	// probes returns the engine's probe state, or nil when Config.Probe is
	// unset.
	probes() *probeState
	// poolStats sums the event-record pool counters of the engine's
	// calendars: freelist hits, fresh allocations, and currently pooled
	// records.
	poolStats() (hits, misses, free uint64)
}

// Simulator runs the detailed network-level model of the GSM/GPRS cluster on
// a single event calendar shared by all cells. Create one with New, run it
// once with Run. A Simulator is single-use and single-goroutine; for
// independent replications merged into cross-replication confidence intervals
// use the runner package, and for shard-parallel execution of one replication
// use NewSharded — both engines produce bit-identical results for a given
// configuration, because every cell draws from its own random variate
// substreams and handovers travel as timestamped messages in either engine.
type Simulator struct {
	config Config
	eng    *des.Simulation
	cells  []*cell
	bpp    int
	pstate *probeState

	// freeHO recycles handover-dispatch records, keeping dispatch off the
	// allocator (the scheduled closure is bound to the record once, at first
	// allocation).
	freeHO []*hoTransit
}

// New validates the configuration and builds a serial simulator.
func New(cfg Config) (*Simulator, error) {
	s := &Simulator{eng: des.NewSimulationQueue(cfg.EventQueue)}
	var err error
	s.config, s.bpp, s.cells, err = buildCells(cfg, s, func(int) *des.Simulation { return s.eng })
	if err != nil {
		return nil, err
	}
	if s.config.Probe != nil {
		s.pstate = newProbeState(*s.config.Probe, s.cells)
	}
	return s, nil
}

// buildCells is the construction path shared by the serial and the sharded
// engine: it validates and defaults the configuration, computes the radio
// blocks per packet, and constructs the cells of the cluster. calendarFor
// supplies cell i's event calendar — the serial engine passes one shared
// calendar, the sharded engine one per cell group.
func buildCells(cfg Config, env cellEnv, calendarFor func(i int) *des.Simulation) (Config, int, []*cell, error) {
	if err := cfg.Validate(); err != nil {
		return Config{}, 0, nil, err
	}
	cfg = cfg.withDefaults()
	bpp := cfg.Channels.Coding.RadioBlocksPerPacket(traffic.PacketSizeBytes)
	if bpp < 1 {
		return Config{}, 0, nil, fmt.Errorf("%w: coding scheme %v yields no radio blocks", ErrInvalidConfig, cfg.Channels.Coding)
	}
	cells := make([]*cell, cfg.Topology.NumCells())
	var err error
	for i := range cells {
		if cells[i], err = newCell(i, env, calendarFor(i), &cfg); err != nil {
			return Config{}, 0, nil, err
		}
	}
	return cfg, bpp, cells, nil
}

// Config returns the (defaulted) configuration of the simulator.
func (s *Simulator) Config() Config { return s.config }

// MidCell returns the index of the measured cell.
func (s *Simulator) MidCell() int { return cluster.MidCell }

// Run executes warm-up plus the measurement period and returns the mid-cell
// results.
func (s *Simulator) Run() (Results, error) { return collectRun(s) }

// Series returns the sim-time series recorded by the run, or nil when
// Config.Probe was unset (or Run has not executed yet).
func (s *Simulator) Series() *probe.Series {
	if s.pstate == nil {
		return nil
	}
	return s.pstate.series
}

func (s *Simulator) conf() *Config             { return &s.config }
func (s *Simulator) radioBlocksPerPacket() int { return s.bpp }
func (s *Simulator) cellList() []*cell         { return s.cells }
func (s *Simulator) processedEvents() uint64   { return s.eng.ProcessedEvents() }
func (s *Simulator) probes() *probeState       { return s.pstate }

func (s *Simulator) poolStats() (hits, misses, free uint64) {
	hits, misses = s.eng.PoolStats()
	return hits, misses, uint64(s.eng.FreeEvents())
}

func (s *Simulator) advanceTo(t float64) error {
	s.eng.RunUntil(t)
	return nil
}

// hoTransit is one handover message in flight on the serial engine's shared
// calendar. Records are recycled through the simulator's freelist; fn is
// bound to the record once, at first allocation, so dispatching allocates
// nothing in steady state.
type hoTransit struct {
	sim *Simulator
	dst int
	msg handoverMsg
	fn  func()
}

func (s *Simulator) getHO() *hoTransit {
	if n := len(s.freeHO); n > 0 {
		t := s.freeHO[n-1]
		s.freeHO[n-1] = nil
		s.freeHO = s.freeHO[:n-1]
		return t
	}
	t := &hoTransit{sim: s}
	t.fn = func() {
		t.sim.cells[t.dst].receive(t.msg)
		t.msg = handoverMsg{}
		t.sim.freeHO = append(t.sim.freeHO, t)
	}
	return t
}

// dispatch implements cellEnv on the shared calendar: the handover message is
// simply scheduled for delivery after the handover latency.
func (s *Simulator) dispatch(src *cell, dst int, m handoverMsg) {
	at := src.now() + s.config.HandoverLatencySec
	t := s.getHO()
	t.dst = dst
	t.msg = m
	if _, err := s.eng.Schedule(at, t.fn); err != nil {
		// Delays are non-negative and finite by construction; an error here
		// would be a programming bug, not a model condition.
		panic(err)
	}
}

// collectRun drives an engine through warm-up and the batched measurement
// period and assembles the mid-cell results.
func collectRun(e engineCore) (Results, error) {
	cfg := e.conf()
	cells := e.cellList()
	probe.Default.RunsStarted.Add(1)
	for _, c := range cells {
		c.start()
	}

	warmupEnd := cfg.WarmupSec
	if err := e.advanceTo(warmupEnd); err != nil {
		return Results{}, err
	}

	mid := cells[cluster.MidCell]
	acc := newBatchAccumulator(cfg.ConfidenceLevel)

	// Reset every cell's measurement window at the end of the warm-up and
	// keep its counter snapshot, so each cell — not only the mid cell — can
	// be reported over the measurement period. Resetting touches only the
	// time-weighted statistics, never the event flow, so mid-cell results are
	// unaffected by the extra bookkeeping.
	perStart := make([]cellSnapshot, len(cells))
	hoStart := make([]hoSnapshot, len(cells))
	for i, c := range cells {
		perStart[i] = c.resetBatchWindow(warmupEnd)
		hoStart[i] = c.handoverSnapshot()
	}
	snap := perStart[cluster.MidCell]
	warmStart := snap

	batchDur := cfg.MeasurementSec / float64(cfg.Batches)
	// Arm the probe (when configured) over the exact measurement span the
	// batch loop will cover: the final batch end below computes the same
	// float expression, so the probe's clamped last window coincides with the
	// terminal aggregates bit for bit.
	ps := e.probes()
	if ps != nil {
		ps.arm(warmupEnd, warmupEnd+float64(cfg.Batches)*batchDur)
	}
	// Publish wall-clock progress at coarse boundaries only (warm-up end and
	// batch ends), keeping the event hot path free of atomics.
	lastEvents := e.processedEvents()
	probe.Default.EventsProcessed.Add(lastEvents)
	end := warmupEnd
	snapInt := mid.gaugeIntegralsAt(warmupEnd)
	for b := 1; b <= cfg.Batches; b++ {
		end = warmupEnd + float64(b)*batchDur
		if err := advanceProbed(e, ps, end); err != nil {
			return Results{}, err
		}
		snapInt = mid.finishBatch(acc, snap, snapInt, end, batchDur)
		snap = mid.snapshot()
		cur := e.processedEvents()
		probe.Default.EventsProcessed.Add(cur - lastEvents)
		lastEvents = cur
	}

	res := acc.results()
	final := mid.snapshot()
	res.PacketsOffered = final.offered - warmStart.offered
	res.PacketsLost = final.lost - warmStart.lost
	res.PacketsDelivered = final.delivered - warmStart.delivered
	res.HandoversIn = mid.handoversIn - hoStart[cluster.MidCell].in
	res.HandoversOut = mid.handoversOut - hoStart[cluster.MidCell].out
	for _, c := range cells {
		res.TCPTimeouts += c.tcpTimeouts
		res.TCPFastRecovers += c.tcpFastRecovers
	}
	res.SimulatedSec = cfg.MeasurementSec
	res.Events = e.processedEvents()
	res.PerCell = perCellMeasures(cells, perStart, hoStart, end, cfg.MeasurementSec)

	hits, misses, free := e.poolStats()
	probe.Default.PoolHits.Add(hits)
	probe.Default.PoolMisses.Add(misses)
	probe.Default.FreeEvents.Store(free)
	probe.Default.RunsCompleted.Add(1)
	return res, nil
}

// perCellMeasures assembles the per-cell report at the end of a run. Every
// cell — the mid cell included — reports its time-weighted statistics
// directly over the measurement window: windows are reset once, at the end of
// the warm-up, and batch boundaries only read running integrals. The armed
// probe's shadow gauges receive the identical update sequence from the
// identical start, so the final probe window reproduces these gauge values
// bit for bit (pinned by TestSeriesMatchesPerCellAggregates).
func perCellMeasures(cells []*cell, perStart []cellSnapshot,
	hoStart []hoSnapshot, end, measurementSec float64) []CellMeasures {
	out := make([]CellMeasures, len(cells))
	for i, c := range cells {
		cur := c.snapshot()
		m := CellMeasures{Cell: i}
		m.CarriedDataTraffic = c.pdchUsage.Mean(end)
		m.MeanQueueLength = c.queueLen.Mean(end)
		m.CarriedVoiceTraffic = c.voiceOcc.Mean(end)
		m.AverageSessions = c.sessOcc.Mean(end)
		m.PacketsOffered = cur.offered - perStart[i].offered
		m.PacketsLost = cur.lost - perStart[i].lost
		m.PacketsDelivered = cur.delivered - perStart[i].delivered
		ho := c.handoverSnapshot()
		m.HandoversIn = ho.in - hoStart[i].in
		m.HandoversOut = ho.out - hoStart[i].out
		m.VoiceHandoversOut = ho.voiceOut - hoStart[i].voiceOut
		m.SessionHandoversOut = ho.sessOut - hoStart[i].sessOut
		m.HandoverArrivals = ho.arrivals - hoStart[i].arrivals
		m.HandoverFailures = ho.failures - hoStart[i].failures
		m.GuardBlockedCalls = ho.guardBlocked - hoStart[i].guardBlocked
		m.HandoversQueued = ho.queued - hoStart[i].queued
		m.HandoverQueueServed = ho.served - hoStart[i].served
		m.HandoverQueueExpired = ho.expired - hoStart[i].expired
		m.HandoverRetries = ho.retries - hoStart[i].retries
		m.HandoverTransitEnds = ho.transitEnds - hoStart[i].transitEnds
		if m.PacketsOffered > 0 {
			m.PacketLossProbability = float64(m.PacketsLost) / float64(m.PacketsOffered)
		}
		if m.PacketsDelivered > 0 {
			m.QueueingDelaySec = (cur.delaySum - perStart[i].delaySum) / float64(m.PacketsDelivered)
		}
		m.ThroughputBits = float64(m.PacketsDelivered) * float64(traffic.PacketSizeBits) / measurementSec
		if gsmArr := cur.gsmArrivals - perStart[i].gsmArrivals; gsmArr > 0 {
			m.GSMBlocking = float64(cur.gsmBlocked-perStart[i].gsmBlocked) / float64(gsmArr)
		}
		if gprsArr := cur.gprsArrivals - perStart[i].gprsArrivals; gprsArr > 0 {
			m.GPRSBlocking = float64(cur.gprsBlocked-perStart[i].gprsBlocked) / float64(gprsArr)
		}
		out[i] = m
	}
	return out
}
