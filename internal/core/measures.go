package core

import (
	"fmt"

	"repro/internal/traffic"
)

// Measures holds the performance measures of Section 4.2 of the paper.
type Measures struct {
	// CarriedDataTraffic (CDT, Eq. 8) is the average number of PDCHs in use
	// for data transfer.
	CarriedDataTraffic float64
	// ThroughputPackets is the overall data throughput CDT * mu_service in
	// packets per second.
	ThroughputPackets float64
	// ThroughputBits is the overall data throughput in bits per second.
	ThroughputBits float64
	// OfferedPacketRate is the average packet arrival rate lambda_avg,
	// including packets lost at a full buffer.
	OfferedPacketRate float64
	// PacketLossProbability (PLP, Eq. 9) is the probability that an arriving
	// packet finds the BSC buffer full.
	PacketLossProbability float64
	// MeanQueueLength is the average number of packets in the BSC buffer.
	MeanQueueLength float64
	// QueueingDelay (QD, Eq. 10) is the mean waiting time of a packet in the
	// BSC buffer in seconds.
	QueueingDelay float64
	// AverageSessions (AGS, Eq. 7) is the average number of active GPRS
	// sessions in the cell.
	AverageSessions float64
	// ThroughputPerUserBits (ATU, Eq. 11) is the average throughput per GPRS
	// user in bits per second.
	ThroughputPerUserBits float64
	// CarriedVoiceTraffic (CVT, Eq. 6) is the average number of channels
	// occupied by GSM voice calls.
	CarriedVoiceTraffic float64
	// GSMBlockingProbability is the Erlang blocking probability of GSM voice
	// calls, p_{GSM, N_GSM}.
	GSMBlockingProbability float64
	// GPRSBlockingProbability is the blocking probability of GPRS session
	// requests, p_{GPRS, M}.
	GPRSBlockingProbability float64
	// GSMHandoverRate is the balanced incoming GSM handover rate (Eq. 4).
	GSMHandoverRate float64
	// GPRSHandoverRate is the balanced incoming GPRS handover rate (Eq. 5).
	GPRSHandoverRate float64
}

// MeasuresFrom derives all performance measures from a steady-state vector
// over the model's state space.
func (m *Model) MeasuresFrom(pi []float64) (Measures, error) {
	if len(pi) != m.space.NumStates() {
		return Measures{}, fmt.Errorf("%w: steady-state vector has %d entries, want %d",
			ErrInvalidConfig, len(pi), m.space.NumStates())
	}

	var (
		cdt      float64 // average PDCHs in use
		offered  float64 // average offered packet arrival rate
		queueLen float64 // mean queue length
	)
	// Walk the states in index order (see StateSpace), not inverting indices.
	sp, idx := m.space, 0
	for n := 0; n <= sp.GSMChannels(); n++ {
		for mm := 0; mm <= sp.MaxSessions(); mm++ {
			for r := 0; r <= mm; r++ {
				for k := 0; k <= sp.BufferSize(); k, idx = k+1, idx+1 {
					p := pi[idx]
					if p == 0 {
						continue
					}
					s := State{GSMCalls: n, Packets: k, Sessions: mm, OffSessions: r}
					cdt += p * float64(m.UsablePDCH(s))
					offered += p * m.OfferedPacketRate(s)
					queueLen += p * float64(k)
				}
			}
		}
	}

	throughputPackets := cdt * m.rates.PacketServiceRate

	var plp float64
	if offered > 0 {
		plp = 1 - throughputPackets/offered
		if plp < 0 {
			plp = 0
		}
		if plp > 1 {
			plp = 1
		}
	}

	var qd float64
	if throughputPackets > 0 {
		qd = queueLen / throughputPackets
	}

	// Voice-side and session-count measures follow from the M/M/c/c closed
	// forms with the balanced handover flows (Eqs. 2-7).
	gsmMean, err := m.gsmBalance.System.MeanBusyServers()
	if err != nil {
		return Measures{}, fmt.Errorf("GSM marginal: %w", err)
	}
	gsmBlock, err := m.gsmBalance.System.BlockingProbability()
	if err != nil {
		return Measures{}, fmt.Errorf("GSM blocking: %w", err)
	}
	gprsMean, err := m.gprsBalance.System.MeanBusyServers()
	if err != nil {
		return Measures{}, fmt.Errorf("GPRS marginal: %w", err)
	}
	gprsBlock, err := m.gprsBalance.System.BlockingProbability()
	if err != nil {
		return Measures{}, fmt.Errorf("GPRS blocking: %w", err)
	}

	var atu float64
	if gprsMean > 0 {
		atu = throughputPackets * float64(traffic.PacketSizeBits) / gprsMean
	}

	return Measures{
		CarriedDataTraffic:      cdt,
		ThroughputPackets:       throughputPackets,
		ThroughputBits:          throughputPackets * float64(traffic.PacketSizeBits),
		OfferedPacketRate:       offered,
		PacketLossProbability:   plp,
		MeanQueueLength:         queueLen,
		QueueingDelay:           qd,
		AverageSessions:         gprsMean,
		ThroughputPerUserBits:   atu,
		CarriedVoiceTraffic:     gsmMean,
		GSMBlockingProbability:  gsmBlock,
		GPRSBlockingProbability: gprsBlock,
		GSMHandoverRate:         m.gsmBalance.HandoverRate,
		GPRSHandoverRate:        m.gprsBalance.HandoverRate,
	}, nil
}
