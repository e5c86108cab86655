package probe

// Counter names one per-cell event counter of the simulator. Every counter
// is declared once, here: the simulator keeps one array of them per cell
// indexed by Counter, and snapshots, deltas, the sampled series, both series
// exports, and the replication merge all loop over this table instead of
// naming each counter.
type Counter uint8

// The per-cell counters, in series column order. Each counts events since
// the start of the run; the engines report differences over the measurement
// period.
const (
	PacketsOffered Counter = iota
	PacketsLost
	PacketsDelivered
	GSMArrivals
	GSMBlocked
	GPRSArrivals
	GPRSBlocked
	HandoversIn
	HandoversOut
	HandoverArrivals
	HandoverFailures
	GuardBlockedCalls
	HandoversQueued
	HandoverQueueServed
	HandoverQueueExpired
	HandoverRetries
	HandoverTransitEnds
	VoiceHandoversOut
	SessionHandoversOut
	TCPTimeouts
	TCPFastRecovers

	// NumCounters is the number of per-cell counters.
	NumCounters
)

// ColumnDef describes one row of the Counters or Gauges table.
type ColumnDef struct {
	// Column is the series column (CSV header and JSON key) of the counter's
	// cumulative value or the gauge's cumulative time average; "" for a
	// counter the series does not sample.
	Column string
	// Doc says what the counter counts or the gauge measures.
	Doc string
}

// Counters describes every Counter, indexed by Counter.
var Counters = [NumCounters]ColumnDef{
	PacketsOffered:       {"offered_cum", "packets offered to the BSC buffer"},
	PacketsLost:          {"lost_cum", "packets dropped because the BSC buffer was full"},
	PacketsDelivered:     {"delivered_cum", "packets delivered to the mobile station"},
	GSMArrivals:          {"gsm_arrivals_cum", "fresh GSM voice calls"},
	GSMBlocked:           {"gsm_blocked_cum", "fresh GSM voice calls blocked"},
	GPRSArrivals:         {"gprs_arrivals_cum", "fresh GPRS session requests"},
	GPRSBlocked:          {"gprs_blocked_cum", "fresh GPRS session requests blocked"},
	HandoversIn:          {"ho_in_cum", "handovers admitted into the cell"},
	HandoversOut:         {"ho_out_cum", "handovers leaving the cell, directed-retry forwards included"},
	HandoverArrivals:     {"ho_arrivals_cum", "handover messages reaching the cell, whatever their outcome"},
	HandoverFailures:     {"ho_failures_cum", "handovers dropped, expired queue entries included"},
	GuardBlockedCalls:    {"ho_guard_blocked_cum", "fresh calls blocked by the guard reservation alone"},
	HandoversQueued:      {"ho_queued_cum", "voice handovers parked in the handover queue"},
	HandoverQueueServed:  {"ho_queue_served_cum", "queued handovers admitted"},
	HandoverQueueExpired: {"ho_queue_expired_cum", "queued handovers that expired as failures"},
	HandoverRetries:      {"ho_retries_cum", "directed-retry forwards issued by the cell"},
	HandoverTransitEnds:  {"ho_transit_ends_cum", "voice handovers whose call ended during the handover interruption"},
	VoiceHandoversOut:    {"", "voice handovers leaving the cell"},
	SessionHandoversOut:  {"", "GPRS session handovers leaving the cell"},
	TCPTimeouts:          {"", "TCP retransmission timeouts of transfers in the cell"},
	TCPFastRecovers:      {"", "TCP fast recoveries of transfers in the cell"},
}

// Sampled reports whether the series records counter k (its Counters row
// has a column).
func (k Counter) Sampled() bool { return Counters[k].Column != "" }

// Gauge names one time-weighted per-cell gauge of the simulator: a
// piecewise-constant occupancy whose time average the simulator reports.
// Every gauge is declared once, here: the simulator keeps one array of
// accumulators per cell (and one of shadow copies while a probe is armed)
// indexed by Gauge, and the batch windows, the per-cell report, the sampled
// series and both series exports loop over this table.
type Gauge uint8

// The per-cell gauges, in series column order.
const (
	CarriedData Gauge = iota
	BufferOccupancy
	CarriedVoice
	ActiveSessions

	// NumGauges is the number of per-cell gauges.
	NumGauges
)

// Gauges describes every Gauge, indexed by Gauge.
var Gauges = [NumGauges]ColumnDef{
	CarriedData:     {"carried_data_cum", "PDCHs transmitting data"},
	BufferOccupancy: {"mean_queue_cum", "packets in the BSC buffer"},
	CarriedVoice:    {"carried_voice_cum", "busy voice channels"},
	ActiveSessions:  {"avg_sessions_cum", "active GPRS sessions"},
}
