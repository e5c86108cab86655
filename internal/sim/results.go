package sim

import (
	"fmt"
	"strings"

	"repro/internal/probe"
	"repro/internal/stats"
)

// Results reports the mid-cell measurements of one simulation run as
// batch-means confidence intervals, mirroring the performance measures of the
// analytical model (Section 4.2 of the paper).
type Results struct {
	// CarriedDataTraffic is the time-average number of PDCHs transmitting
	// data (CDT).
	CarriedDataTraffic stats.Interval
	// PacketLossProbability is the fraction of packets arriving at the BSC
	// that are dropped because the buffer is full (PLP).
	PacketLossProbability stats.Interval
	// QueueingDelay is the mean time a delivered packet spends in the BSC
	// buffer, in seconds (QD).
	QueueingDelay stats.Interval
	// ThroughputBits is the delivered data rate in bit/s.
	ThroughputBits stats.Interval
	// ThroughputPerUserBits is the delivered data rate per active GPRS
	// session in bit/s (ATU).
	ThroughputPerUserBits stats.Interval
	// AverageSessions is the time-average number of active GPRS sessions
	// (AGS).
	AverageSessions stats.Interval
	// CarriedVoiceTraffic is the time-average number of busy voice channels
	// (CVT).
	CarriedVoiceTraffic stats.Interval
	// GSMBlockingProbability is the fraction of fresh GSM calls blocked in
	// the mid cell.
	GSMBlockingProbability stats.Interval
	// GPRSBlockingProbability is the fraction of fresh GPRS session requests
	// blocked in the mid cell.
	GPRSBlockingProbability stats.Interval
	// MeanQueueLength is the time-average BSC buffer occupancy in packets.
	MeanQueueLength stats.Interval

	// Mid-cell counter totals over the measurement period.
	PacketsOffered   int64
	PacketsLost      int64
	PacketsDelivered int64
	HandoversIn      int64
	HandoversOut     int64
	// TCPTimeouts and TCPFastRecovers are summed over every cell since time
	// 0, warm-up included. Each transfer credits its congestion events to
	// its cell when it completes or aborts.
	TCPTimeouts     int64
	TCPFastRecovers int64
	// SimulatedSec is the length of the measurement period in simulated
	// seconds.
	SimulatedSec float64
	// Events counts every event the run processed, warm-up included.
	Events uint64

	// PerCell reports every cell of the cluster over the measurement period,
	// indexed by cell id. Under the paper's symmetric load all cells are
	// statistically identical and only the mid cell is of interest; under
	// heterogeneous scenarios (hotspot cells, load gradients — see
	// internal/scenario) the spatial shape of the response is the result.
	PerCell []CellMeasures

	// PerCellCI carries cross-replication confidence intervals over every
	// per-cell measure, indexed by cell id like PerCell. A single simulation
	// run cannot produce them (PerCell holds point estimates only), so this
	// field is nil on the Results of one run and is populated by the
	// replication runner's merge: each interval is a Student-t interval over
	// the per-replication values of one cell's measure (over antithetic pair
	// means or control-variate-adjusted values when the runner's variance
	// reduction is enabled).
	PerCellCI []CellIntervals
}

// CellMeasures summarizes one cell of the cluster over the whole measurement
// period. Unlike the mid-cell intervals of Results these are point estimates
// (time averages and ratios of totals); cross-replication confidence
// intervals over them come from the runner package.
type CellMeasures struct {
	// Cell is the cell id (cluster.MidCell is the measured mid cell).
	Cell int
	// CarriedDataTraffic is the time-average number of PDCHs transmitting
	// data in this cell.
	CarriedDataTraffic float64
	// MeanQueueLength is the time-average BSC buffer occupancy in packets.
	MeanQueueLength float64
	// CarriedVoiceTraffic is the time-average number of busy voice channels.
	CarriedVoiceTraffic float64
	// AverageSessions is the time-average number of active GPRS sessions.
	AverageSessions float64
	// PacketLossProbability is the fraction of packets offered to this cell's
	// BSC buffer that were dropped.
	PacketLossProbability float64
	// QueueingDelaySec is the mean buffer time of the packets this cell
	// delivered.
	QueueingDelaySec float64
	// ThroughputBits is the data rate this cell delivered in bit/s.
	ThroughputBits float64
	// GSMBlocking and GPRSBlocking are the fresh-arrival blocking fractions.
	GSMBlocking  float64
	GPRSBlocking float64

	// Counter totals over the measurement period.
	PacketsOffered   int64
	PacketsLost      int64
	PacketsDelivered int64
	HandoversIn      int64
	HandoversOut     int64

	// Handover-flow detail, the signature measures of mobility scenarios
	// (skewed dwell times skew these even when the load is uniform).
	// HandoversOut splits by service into VoiceHandoversOut and
	// SessionHandoversOut. HandoverArrivals counts every handover message
	// reaching this cell — admitted (HandoversIn), dropped for lack of
	// capacity (HandoverFailures), or carrying a voice call that completed
	// in transit — so summed over all cells, arrivals balance departures
	// exactly (wrap-around flow conservation) up to messages in flight
	// across the measurement boundaries.
	VoiceHandoversOut   int64
	SessionHandoversOut int64
	HandoverArrivals    int64
	HandoverFailures    int64

	// Admission-policy detail (see internal/policy and Config.Policy).
	// GuardBlockedCalls counts fresh calls blocked by the guard reservation
	// alone (a channel was free but reserved for handovers).
	// HandoversQueued, HandoverQueueServed, and HandoverQueueExpired are the
	// queued-handovers ledger: on a drained run, queued = served + expired
	// exactly, and expired failures are included in HandoverFailures.
	// HandoverRetries counts directed-retry forwards issued by this cell
	// (also included in HandoversOut). HandoverTransitEnds counts voice
	// handovers whose call completed during the handover interruption — this
	// happens under a nil policy too; it simply was not reported before.
	GuardBlockedCalls    int64
	HandoversQueued      int64
	HandoverQueueServed  int64
	HandoverQueueExpired int64
	HandoverRetries      int64
	HandoverTransitEnds  int64
}

// Counter returns the field of m that reports counter k over the
// measurement period, or nil when k is not reported per cell: the
// fresh-arrival and blocking counts enter only as the GSMBlocking and
// GPRSBlocking ratios, and the TCP counters only as the cluster totals of
// Results.
func (m *CellMeasures) Counter(k probe.Counter) *int64 {
	switch k {
	case probe.PacketsOffered:
		return &m.PacketsOffered
	case probe.PacketsLost:
		return &m.PacketsLost
	case probe.PacketsDelivered:
		return &m.PacketsDelivered
	case probe.HandoversIn:
		return &m.HandoversIn
	case probe.HandoversOut:
		return &m.HandoversOut
	case probe.VoiceHandoversOut:
		return &m.VoiceHandoversOut
	case probe.SessionHandoversOut:
		return &m.SessionHandoversOut
	case probe.HandoverArrivals:
		return &m.HandoverArrivals
	case probe.HandoverFailures:
		return &m.HandoverFailures
	case probe.GuardBlockedCalls:
		return &m.GuardBlockedCalls
	case probe.HandoversQueued:
		return &m.HandoversQueued
	case probe.HandoverQueueServed:
		return &m.HandoverQueueServed
	case probe.HandoverQueueExpired:
		return &m.HandoverQueueExpired
	case probe.HandoverRetries:
		return &m.HandoverRetries
	case probe.HandoverTransitEnds:
		return &m.HandoverTransitEnds
	}
	return nil
}

// CellIntervals carries cross-replication confidence intervals for the
// point-estimate measures of one cell's CellMeasures. It is produced by the
// replication runner's merge (see Results.PerCellCI); the counter totals of
// CellMeasures have no interval form and are summed instead.
type CellIntervals struct {
	// Cell is the cell id (cluster.MidCell is the measured mid cell).
	Cell int
	// CarriedDataTraffic is the interval over the per-replication
	// time-average PDCHs transmitting data in this cell.
	CarriedDataTraffic stats.Interval
	// MeanQueueLength is the interval over the time-average BSC buffer
	// occupancy in packets.
	MeanQueueLength stats.Interval
	// CarriedVoiceTraffic is the interval over the time-average busy voice
	// channels.
	CarriedVoiceTraffic stats.Interval
	// AverageSessions is the interval over the time-average active GPRS
	// sessions.
	AverageSessions stats.Interval
	// PacketLossProbability is the interval over the per-replication packet
	// loss fractions.
	PacketLossProbability stats.Interval
	// QueueingDelaySec is the interval over the per-replication mean buffer
	// times in seconds.
	QueueingDelaySec stats.Interval
	// ThroughputBits is the interval over the per-replication delivered data
	// rates in bit/s.
	ThroughputBits stats.Interval
	// GSMBlocking and GPRSBlocking are the intervals over the fresh-arrival
	// blocking fractions.
	GSMBlocking  stats.Interval
	GPRSBlocking stats.Interval
}

// String renders the results as a small table, one row per Measure. The
// rows keep the report's historic order, which lists throughput (the first
// Measure, as the default stopping target) after QD.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mid-cell results over %.0f s (%d events)\n", r.SimulatedSec, r.Events)
	row := func(m Measure) { fmt.Fprintf(&b, "  %-20s %s\n", measures[m].label, r.Interval(m).String()) }
	for m := MeasureCDT; m < NumMeasures; m++ {
		row(m)
		if m == MeasureQD {
			row(MeasureThroughput)
		}
	}
	fmt.Fprintf(&b, "  offered=%d lost=%d delivered=%d handovers in/out=%d/%d tcp timeouts=%d fast recoveries=%d\n",
		r.PacketsOffered, r.PacketsLost, r.PacketsDelivered, r.HandoversIn, r.HandoversOut,
		r.TCPTimeouts, r.TCPFastRecovers)
	return b.String()
}

// batchAccumulator collects the per-batch observations of the mid cell in
// one batch-means estimator per Measure (fed whole batch means only, so the
// zero value serves) and produces the batch-means intervals.
type batchAccumulator struct {
	level float64
	bm    [NumMeasures]stats.BatchMeans
}

func (a *batchAccumulator) results() Results {
	var r Results
	for m := range NumMeasures {
		*r.Interval(m) = a.bm[m].ConfidenceInterval(a.level)
	}
	return r
}
