// Package core implements the paper's primary contribution: the
// continuous-time Markov chain model of the radio interface of an integrated
// GSM/GPRS cell (Sections 3 and 4). A state (n, k, m, r) captures the number
// of active GSM voice calls, the number of data packets queued at the BSC,
// the number of active GPRS sessions, and the number of sessions whose IPP
// traffic source is currently in the off state (the aggregated MMPP of
// Section 4.1). The model yields the performance measures of Section 4.2:
// carried data traffic (CDT), packet loss probability (PLP), queueing delay
// (QD), throughput per user (ATU), carried voice traffic (CVT), the average
// number of GPRS sessions (AGS), and GSM/GPRS blocking probabilities.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/radio"
	"repro/internal/traffic"
)

// ErrInvalidConfig is returned when a model configuration is inconsistent.
var ErrInvalidConfig = errors.New("core: invalid configuration")

// Config specifies one cell of the integrated GSM/GPRS network together with
// its workload. The zero value is not usable; start from BaseConfig (Table 2
// of the paper) and adjust fields.
type Config struct {
	// Channels describes the physical channels of the cell and the number of
	// PDCHs permanently reserved for GPRS (N and N_GPRS of the paper).
	Channels radio.ChannelPlan

	// BufferSize is the capacity K of the BSC FIFO buffer in data packets.
	BufferSize int

	// MaxSessions is the admission limit M on concurrently active GPRS
	// sessions in the cell.
	MaxSessions int

	// Session holds the 3GPP traffic parameters of one GPRS packet-service
	// session (Table 3).
	Session traffic.SessionParams

	// TotalCallRate is the total arrival rate of new GSM calls plus new GPRS
	// session requests (calls per second); it is the x-axis of every figure
	// in the paper.
	TotalCallRate float64

	// GPRSFraction is the fraction of arriving calls that are GPRS session
	// requests (0.05 in the base setting; 0.02/0.05/0.10 in Section 5.3).
	GPRSFraction float64

	// GSMCallDurationSec is the mean GSM voice call duration 1/mu_GSM.
	GSMCallDurationSec float64

	// GSMDwellTimeSec is the mean GSM call dwell time 1/mu_h,GSM.
	GSMDwellTimeSec float64

	// GPRSDwellTimeSec is the mean GPRS session dwell time 1/mu_h,GPRS.
	GPRSDwellTimeSec float64

	// FlowControlThreshold is the TCP flow-control threshold eta: when the
	// BSC queue exceeds eta*K packets, the packet arrival rate is limited to
	// the current service rate (Section 3). It must lie in (0, 1]. The
	// calibrated value is 0.7; 1.0 disables flow control.
	FlowControlThreshold float64

	// HandoverTolerance is the convergence tolerance of the handover-flow
	// balancing fixed point; a value of at most 0 means 1e-12, and a NaN or
	// infinite one is invalid.
	HandoverTolerance float64

	// HandoverMaxIterations bounds the balancing iteration; the zero value
	// means 10000.
	HandoverMaxIterations int
}

// BaseConfig returns the base parameter setting of Table 2 combined with the
// session parameters and admission limit of the given traffic model
// (Table 3), at the given total call arrival rate.
func BaseConfig(model traffic.Model, totalCallRate float64) Config {
	spec := model.Spec()
	return Config{
		Channels: radio.ChannelPlan{
			TotalChannels: 20,
			ReservedPDCH:  1,
			Coding:        radio.CS2,
		},
		BufferSize:           100,
		MaxSessions:          spec.MaxSessions,
		Session:              spec.Session,
		TotalCallRate:        totalCallRate,
		GPRSFraction:         0.05,
		GSMCallDurationSec:   120,
		GSMDwellTimeSec:      60,
		GPRSDwellTimeSec:     120,
		FlowControlThreshold: 0.7,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	if err := c.Channels.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
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
	if !(c.TotalCallRate > 0) || math.IsInf(c.TotalCallRate, 0) {
		return fmt.Errorf("%w: total call rate %v must be positive and finite (at 0 no call arrives, the empty cell is absorbing and the model has no steady state)", ErrInvalidConfig, c.TotalCallRate)
	}
	if c.GPRSFraction < 0 || c.GPRSFraction > 1 || math.IsNaN(c.GPRSFraction) {
		return fmt.Errorf("%w: GPRS fraction %v", ErrInvalidConfig, c.GPRSFraction)
	}
	if c.GPRSFraction == 0 && c.Channels.GSMChannels() == 0 {
		return fmt.Errorf("%w: with GPRS fraction 0 and all %d channels reserved for GPRS no call is admitted (the empty cell is absorbing and the model has no steady state)", ErrInvalidConfig, c.Channels.TotalChannels)
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
	if !(c.FlowControlThreshold > 0 && c.FlowControlThreshold <= 1) {
		return fmt.Errorf("%w: flow control threshold %v", ErrInvalidConfig, c.FlowControlThreshold)
	}
	if math.IsNaN(c.HandoverTolerance) || math.IsInf(c.HandoverTolerance, 0) {
		return fmt.Errorf("%w: handover tolerance %v", ErrInvalidConfig, c.HandoverTolerance)
	}
	return nil
}

// Rates bundles the primitive transition rates derived from a configuration
// (before handover balancing).
type Rates struct {
	// NewGSMCallRate is lambda_GSM, the arrival rate of fresh GSM calls.
	NewGSMCallRate float64
	// NewGPRSSessionRate is lambda_GPRS, the arrival rate of fresh GPRS
	// session requests.
	NewGPRSSessionRate float64
	// GSMServiceRate is mu_GSM = 1 / call duration.
	GSMServiceRate float64
	// GSMHandoverRate is mu_h,GSM = 1 / dwell time.
	GSMHandoverRate float64
	// GPRSServiceRate is mu_GPRS = 1 / session duration.
	GPRSServiceRate float64
	// GPRSHandoverRate is mu_h,GPRS = 1 / session dwell time.
	GPRSHandoverRate float64
	// PacketServiceRate is mu_service, the per-PDCH packet service rate.
	PacketServiceRate float64
	// IPP is the per-session traffic source.
	IPP traffic.IPP
}

// DeriveRates computes the primitive rates of the Markov model from the
// configuration (Section 3 of the paper).
func (c Config) DeriveRates() Rates {
	return Rates{
		NewGSMCallRate:     (1 - c.GPRSFraction) * c.TotalCallRate,
		NewGPRSSessionRate: c.GPRSFraction * c.TotalCallRate,
		GSMServiceRate:     1 / c.GSMCallDurationSec,
		GSMHandoverRate:    1 / c.GSMDwellTimeSec,
		GPRSServiceRate:    1 / c.Session.MeanSessionDurationSec(),
		GPRSHandoverRate:   1 / c.GPRSDwellTimeSec,
		PacketServiceRate:  c.Channels.Coding.PacketServiceRatePerPDCH(),
		IPP:                c.Session.IPP(),
	}
}

// NumStates returns the size of the aggregated state space,
// (N_GSM+1)(K+1)(M+1)(M+2)/2 (Section 4.1).
func (c Config) NumStates() int {
	nGSM := c.Channels.GSMChannels()
	tri := (c.MaxSessions + 1) * (c.MaxSessions + 2) / 2
	return (nGSM + 1) * (c.BufferSize + 1) * tri
}
