package sim

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Measure names one interval-valued mid-cell measure of Results. Every
// measure is declared once, in this enum and its table: the batch-means
// accumulator, the text report, the replication merge and the adaptive
// stopping rule's -target flag all loop over the table instead of naming
// each measure. The zero value is MeasureThroughput, the GPRS throughput the
// paper's dimensioning questions revolve around.
type Measure int

// The mid-cell measures, in flag-listing order. Each is reported in the
// Results field its row of the measures table names.
const (
	MeasureThroughput Measure = iota
	MeasureCDT
	MeasurePLP
	MeasureQD
	MeasureATU
	MeasureAGS
	MeasureCVT
	MeasureGSMBlocking
	MeasureGPRSBlocking
	MeasureQueueLength

	// NumMeasures is the number of mid-cell measures.
	NumMeasures
)

// measures describes every Measure, indexed by Measure: its flag name, its
// row label in Results.String, and the Results field holding it.
var measures = [NumMeasures]struct {
	name, label string
	field       func(*Results) *stats.Interval
}{
	MeasureThroughput:   {"throughput", "throughput (bit/s)", func(r *Results) *stats.Interval { return &r.ThroughputBits }},
	MeasureCDT:          {"cdt", "CDT (PDCHs)", func(r *Results) *stats.Interval { return &r.CarriedDataTraffic }},
	MeasurePLP:          {"plp", "PLP", func(r *Results) *stats.Interval { return &r.PacketLossProbability }},
	MeasureQD:           {"qd", "QD (s)", func(r *Results) *stats.Interval { return &r.QueueingDelay }},
	MeasureATU:          {"atu", "ATU (bit/s)", func(r *Results) *stats.Interval { return &r.ThroughputPerUserBits }},
	MeasureAGS:          {"ags", "AGS (sessions)", func(r *Results) *stats.Interval { return &r.AverageSessions }},
	MeasureCVT:          {"cvt", "CVT (channels)", func(r *Results) *stats.Interval { return &r.CarriedVoiceTraffic }},
	MeasureGSMBlocking:  {"gsm-blocking", "GSM blocking", func(r *Results) *stats.Interval { return &r.GSMBlockingProbability }},
	MeasureGPRSBlocking: {"gprs-blocking", "GPRS blocking", func(r *Results) *stats.Interval { return &r.GPRSBlockingProbability }},
	MeasureQueueLength:  {"queue", "mean queue length", func(r *Results) *stats.Interval { return &r.MeanQueueLength }},
}

// Valid reports whether m names a known measure.
func (m Measure) Valid() bool { return m >= 0 && m < NumMeasures }

// String returns the measure's flag name (e.g. "throughput", "plp").
func (m Measure) String() string {
	if !m.Valid() {
		return fmt.Sprintf("measure(%d)", int(m))
	}
	return measures[m].name
}

// Interval returns the field of r that holds the valid measure m.
func (r *Results) Interval(m Measure) *stats.Interval { return measures[m].field(r) }

// MeasureNames lists the flag names of every measure, in table order.
func MeasureNames() []string {
	names := make([]string, NumMeasures)
	for m := range NumMeasures {
		names[m] = m.String()
	}
	return names
}

// ParseMeasure resolves a flag name (case-insensitive) to its Measure.
func ParseMeasure(s string) (Measure, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for m := range NumMeasures {
		if measures[m].name == want {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown measure %q (known: %s)", s, strings.Join(MeasureNames(), ", "))
}

// CellMeasure names one point estimate of CellMeasures and its interval in
// CellIntervals. The first probe.NumGauges values are the time averages of
// the gauges, in probe.Gauge order, so CellMeasure(g) is gauge g's; the rest
// are ratios of counter totals. The replication merge loops over this table.
type CellMeasure int

// The per-cell point estimates.
const (
	CellCarriedData CellMeasure = iota
	CellQueueLength
	CellCarriedVoice
	CellSessions
	CellPLP
	CellQD
	CellThroughput
	CellGSMBlocking
	CellGPRSBlocking

	// NumCellMeasures is the number of per-cell point estimates.
	NumCellMeasures
)

// cellMeasures describes every CellMeasure, indexed by CellMeasure: its name
// and the CellMeasures and CellIntervals fields holding it.
var cellMeasures = [NumCellMeasures]struct {
	name     string
	value    func(*CellMeasures) *float64
	interval func(*CellIntervals) *stats.Interval
}{
	CellCarriedData: {"cdt", func(m *CellMeasures) *float64 { return &m.CarriedDataTraffic },
		func(iv *CellIntervals) *stats.Interval { return &iv.CarriedDataTraffic }},
	CellQueueLength: {"queue", func(m *CellMeasures) *float64 { return &m.MeanQueueLength },
		func(iv *CellIntervals) *stats.Interval { return &iv.MeanQueueLength }},
	CellCarriedVoice: {"cvt", func(m *CellMeasures) *float64 { return &m.CarriedVoiceTraffic },
		func(iv *CellIntervals) *stats.Interval { return &iv.CarriedVoiceTraffic }},
	CellSessions: {"ags", func(m *CellMeasures) *float64 { return &m.AverageSessions },
		func(iv *CellIntervals) *stats.Interval { return &iv.AverageSessions }},
	CellPLP: {"plp", func(m *CellMeasures) *float64 { return &m.PacketLossProbability },
		func(iv *CellIntervals) *stats.Interval { return &iv.PacketLossProbability }},
	CellQD: {"qd", func(m *CellMeasures) *float64 { return &m.QueueingDelaySec },
		func(iv *CellIntervals) *stats.Interval { return &iv.QueueingDelaySec }},
	CellThroughput: {"throughput", func(m *CellMeasures) *float64 { return &m.ThroughputBits },
		func(iv *CellIntervals) *stats.Interval { return &iv.ThroughputBits }},
	CellGSMBlocking: {"gsm-blocking", func(m *CellMeasures) *float64 { return &m.GSMBlocking },
		func(iv *CellIntervals) *stats.Interval { return &iv.GSMBlocking }},
	CellGPRSBlocking: {"gprs-blocking", func(m *CellMeasures) *float64 { return &m.GPRSBlocking },
		func(iv *CellIntervals) *stats.Interval { return &iv.GPRSBlocking }},
}

// Measure returns the field of m that holds point estimate k.
func (m *CellMeasures) Measure(k CellMeasure) *float64 { return cellMeasures[k].value(m) }

// Interval returns the field of iv that holds point estimate k's interval.
func (iv *CellIntervals) Interval(k CellMeasure) *stats.Interval { return cellMeasures[k].interval(iv) }
