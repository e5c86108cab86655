// Package sim implements the detailed network-level GPRS simulator the paper
// uses to validate the Markov model (Section 5.2): a cluster of seven
// hexagonal cells serving GSM voice calls and GPRS data sessions, explicit
// handover procedures, TDMA-block-level transmission of data packets over
// dynamically allocated PDCHs with GSM pre-emption priority, a finite FIFO
// buffer at the BSC, and TCP flow control (slow start, congestion avoidance,
// fast retransmit, retransmission timeouts) for the packet calls of the 3GPP
// traffic model. Measurements are collected in the mid cell and reported with
// batch-means 95% confidence intervals.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/radio"
	"repro/internal/tcp"
	"repro/internal/traffic"
)

// ErrInvalidConfig is returned for inconsistent simulator configurations.
var ErrInvalidConfig = errors.New("sim: invalid configuration")

// Config parameterizes one simulation run.
type Config struct {
	// Topology is the cell cluster; nil means the seven-cell hexagonal
	// cluster of the paper.
	Topology *cluster.Topology

	// Channels, BufferSize, MaxSessions, Session, TotalCallRate,
	// GPRSFraction and the duration fields have the same meaning as in the
	// analytical model (core.Config); TotalCallRate is per cell.
	Channels      radio.ChannelPlan
	BufferSize    int
	MaxSessions   int
	Session       traffic.SessionParams
	TotalCallRate float64
	GPRSFraction  float64

	GSMCallDurationSec float64
	GSMDwellTimeSec    float64
	GPRSDwellTimeSec   float64

	// Rates, when non-nil, overrides the homogeneous fresh-arrival load
	// derived from TotalCallRate and GPRSFraction with per-cell,
	// time-dependent arrival rates (hotspot cells, load gradients, busy-hour
	// ramps — see internal/scenario). A nil value means the uniform constant
	// profile BaseRates(), the symmetric load of the paper. Handover, dwell,
	// and service parameters are unaffected. Implementations must satisfy the
	// RateProfile contract (piecewise constant, concurrency-safe, pure).
	Rates RateProfile

	// Mobility, when non-nil, scales the mean GSM/GPRS dwell times per cell
	// and time (slow users in a hotspot, fast users on a highway corridor —
	// see internal/scenario), skewing the handover flow itself. A nil value
	// means multiplier 1 everywhere, the paper's single dwell time per
	// service. Arrival, service, and handover-latency parameters are
	// unaffected. Implementations must satisfy the MobilityProfile contract
	// (piecewise constant, strictly positive, concurrency-safe, pure).
	Mobility MobilityProfile

	// Policy, when non-nil, selects the admission/handover policy of every
	// cell — guard channels, queued handovers, or directed retry (see
	// internal/policy). A nil value is the paper's default admission: fresh
	// calls and handovers share the voice channels, and a handover finding
	// the target cell full is dropped. Policies are pure admission rules and
	// consume no random draws, so a nil policy reproduces the historic
	// engines bit for bit (pinned by the golden-digest suite) and every
	// policy behaves identically under every partitioning.
	Policy *policy.Config

	// HandoverLatencySec is the service interruption of a handover: the time
	// a user is in transit between the source and the target cell, occupying
	// resources in neither (default 100 ms, the classic GSM handover
	// interruption). It doubles as the synchronization lookahead of the
	// shard engine: cross-cell handovers are the only inter-cell
	// interaction, so cell groups can safely advance in windows of this
	// length.
	HandoverLatencySec float64

	// EnableTCP selects closed-loop packet calls (each packet call is a TCP
	// transfer reacting to BSC buffer overflow). When false, packets are
	// generated open loop by the IPP of the 3GPP traffic model.
	EnableTCP bool
	// TCP configures the per-connection congestion control when EnableTCP is
	// set; the zero value uses the package defaults.
	TCP tcp.Config
	// CoreNetworkDelaySec is the one-way delay between the fixed-network TCP
	// sender and the BSC (default 50 ms).
	CoreNetworkDelaySec float64
	// UplinkDelaySec is the delay for acknowledgements travelling back from
	// the mobile station to the sender (default 100 ms).
	UplinkDelaySec float64

	// WarmupSec is the initial transient discarded before measurements start
	// (default 2000 s). It must be finite and non-negative.
	WarmupSec float64
	// MeasurementSec is the measured simulation time after the warm-up
	// (default 20000 s, also selected by 0). It must be finite and
	// non-negative.
	MeasurementSec float64
	// Batches is the number of batch-means batches the measurement period is
	// divided into (default 10, also selected by 0). It must not be negative.
	Batches int
	// ConfidenceLevel is the confidence level of the reported intervals
	// (default 0.95).
	ConfidenceLevel float64
	// Seed makes the run reproducible.
	Seed int64
	// Streams selects the draw behaviour of every random variate stream of
	// the run. The zero value (des.StreamDefault) reproduces the historic
	// draws bit-identically; des.StreamPaired and des.StreamAntithetic derive
	// every variate by inversion from a single uniform draw so two runs with
	// the same Seed and the two kinds form an antithetic pair — the
	// variance-reduction mode of the replication runner sets this field.
	Streams des.StreamKind

	// Partition selects how NewSharded groups cells into group calendars
	// (see internal/partition): each group shares one event calendar and
	// only cross-group handovers travel as window-barrier messages. A nil
	// value means the locality-aware partitioner with one group per worker.
	// Like the shard layout itself, the partitioning never affects results —
	// every valid assignment is bit-identical to New's one-group simulator
	// (pinned by the partition-equivalence suite) — it only shifts load
	// balance and barrier traffic. New ignores it.
	Partition *partition.Spec

	// Probe, when non-nil, arms the deterministic sim-time series probe: the
	// run records every cell's counters and time-averaged gauges at fixed
	// window boundaries of Probe.IntervalSec across the measurement period.
	// Arming never changes a single bit of the Results (see the determinism
	// contract of package probe); the recorded series travels out of band,
	// via Simulator.Series or RunOnceSeries.
	Probe *probe.Spec
}

// DefaultConfig returns the simulator configuration matching the base
// parameter setting of Table 2 with the given traffic model and per-cell call
// arrival rate, with TCP flow control enabled.
func DefaultConfig(model traffic.Model, totalCallRate float64) Config {
	spec := model.Spec()
	return Config{
		Channels: radio.ChannelPlan{
			TotalChannels: 20,
			ReservedPDCH:  1,
			Coding:        radio.CS2,
		},
		BufferSize:          100,
		MaxSessions:         spec.MaxSessions,
		Session:             spec.Session,
		TotalCallRate:       totalCallRate,
		GPRSFraction:        0.05,
		GSMCallDurationSec:  120,
		GSMDwellTimeSec:     60,
		GPRSDwellTimeSec:    120,
		EnableTCP:           true,
		CoreNetworkDelaySec: 0.05,
		UplinkDelaySec:      0.1,
		WarmupSec:           2000,
		MeasurementSec:      20000,
		Batches:             10,
		ConfidenceLevel:     0.95,
		Seed:                1,
	}
}

func (c Config) withDefaults() Config {
	if c.Topology == nil {
		c.Topology = cluster.NewHexCluster()
	}
	if c.HandoverLatencySec <= 0 {
		c.HandoverLatencySec = 0.1
	}
	if c.CoreNetworkDelaySec <= 0 {
		c.CoreNetworkDelaySec = 0.05
	}
	if c.UplinkDelaySec <= 0 {
		c.UplinkDelaySec = 0.1
	}
	if c.Rates == nil {
		voice, data := c.BaseRates()
		c.Rates = uniformRates{voice: voice, data: data}
	}
	if c.MeasurementSec == 0 {
		c.MeasurementSec = 20000
	}
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.ConfidenceLevel <= 0 || c.ConfidenceLevel >= 1 {
		c.ConfidenceLevel = 0.95
	}
	return c
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	if err := c.Channels.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if c.Policy != nil {
		if err := c.Policy.Validate(c.Channels.GSMChannels()); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.BufferSize < 1 {
		return fmt.Errorf("%w: buffer size %d", ErrInvalidConfig, c.BufferSize)
	}
	if c.MaxSessions < 1 {
		return fmt.Errorf("%w: max sessions %d", ErrInvalidConfig, c.MaxSessions)
	}
	if err := c.Session.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if c.TotalCallRate < 0 || math.IsNaN(c.TotalCallRate) || math.IsInf(c.TotalCallRate, 0) {
		return fmt.Errorf("%w: total call rate %v", ErrInvalidConfig, c.TotalCallRate)
	}
	if c.GPRSFraction < 0 || c.GPRSFraction > 1 || math.IsNaN(c.GPRSFraction) {
		return fmt.Errorf("%w: GPRS fraction %v", ErrInvalidConfig, c.GPRSFraction)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"GSM call duration", c.GSMCallDurationSec},
		{"GSM dwell time", c.GSMDwellTimeSec},
		{"GPRS dwell time", c.GPRSDwellTimeSec},
	} {
		if f.v <= 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s = %v", ErrInvalidConfig, f.name, f.v)
		}
	}
	// A negative or non-finite run length would end the run at once, never
	// end it, or make every measure NaN; a zero measurement time selects the
	// default.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"handover latency", c.HandoverLatencySec},
		{"warm-up", c.WarmupSec},
		{"measurement time", c.MeasurementSec},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s = %v", ErrInvalidConfig, f.name, f.v)
		}
	}
	if c.Batches < 0 {
		return fmt.Errorf("%w: batches = %d", ErrInvalidConfig, c.Batches)
	}
	// Non-positive TCP path delays select the defaults; non-finite ones
	// cannot key the fixed-delay event lanes they are scheduled on.
	if math.IsNaN(c.CoreNetworkDelaySec) || math.IsInf(c.CoreNetworkDelaySec, 0) {
		return fmt.Errorf("%w: core-network delay = %v", ErrInvalidConfig, c.CoreNetworkDelaySec)
	}
	if math.IsNaN(c.UplinkDelaySec) || math.IsInf(c.UplinkDelaySec, 0) {
		return fmt.Errorf("%w: uplink delay = %v", ErrInvalidConfig, c.UplinkDelaySec)
	}
	if c.Streams < des.StreamDefault || c.Streams > des.StreamAntithetic {
		return fmt.Errorf("%w: stream kind %d", ErrInvalidConfig, c.Streams)
	}
	if c.EnableTCP {
		if err := c.TCP.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.Partition != nil {
		if err := c.Partition.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.Probe != nil {
		measurement := c.MeasurementSec
		if measurement == 0 {
			measurement = 20000 // withDefaults applies the same fallback
		}
		if err := c.Probe.Validate(measurement); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.Rates != nil || c.Mobility != nil {
		cells := cluster.NewHexCluster().NumCells()
		if c.Topology != nil {
			cells = c.Topology.NumCells()
		}
		if c.Rates != nil {
			if err := validateRates(c.Rates, cells); err != nil {
				return err
			}
		}
		if c.Mobility != nil {
			if err := validateMobility(c.Mobility, cells); err != nil {
				return err
			}
		}
	}
	return nil
}
