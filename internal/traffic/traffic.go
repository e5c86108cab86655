// Package traffic implements the 3GPP packet-service traffic model used by
// the paper (Section 3, Fig. 3/4 and Table 3): a GPRS session is an
// alternating sequence of packet calls and reading times, represented as an
// interrupted Poisson process (IPP, a two-state on/off MMPP). The package
// also provides the aggregation of m statistically identical IPPs into a
// single (m+1)-state MMPP that makes the Markov model numerically tractable.
package traffic

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidParameter is returned for out-of-range traffic parameters.
var ErrInvalidParameter = errors.New("traffic: invalid parameter")

// PacketSizeBytes is the network-layer data packet size assumed by the paper
// (480 byte, from the 3GPP traffic characterization [11]).
const PacketSizeBytes = 480

// PacketSizeBits is the packet size in bits.
const PacketSizeBits = PacketSizeBytes * 8

// SessionParams describes one packet-service session in the 3GPP model:
//   - a geometrically distributed number of packet calls with mean NumPacketCalls,
//   - exponentially distributed reading time between packet calls with mean
//     ReadingTimeSec,
//   - a geometrically distributed number of packets per packet call with mean
//     PacketsPerCall,
//   - exponentially distributed packet inter-arrival time within a packet
//     call with mean PacketInterarrivalSec.
type SessionParams struct {
	NumPacketCalls        float64 // N_pc
	ReadingTimeSec        float64 // D_pc
	PacketsPerCall        float64 // N_d
	PacketInterarrivalSec float64 // D_d
}

// Validate reports whether the session parameters are well formed.
func (p SessionParams) Validate() error {
	check := func(name string, v float64) error {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s = %v", ErrInvalidParameter, name, v)
		}
		return nil
	}
	if err := check("NumPacketCalls", p.NumPacketCalls); err != nil {
		return err
	}
	if err := check("ReadingTimeSec", p.ReadingTimeSec); err != nil {
		return err
	}
	if err := check("PacketsPerCall", p.PacketsPerCall); err != nil {
		return err
	}
	return check("PacketInterarrivalSec", p.PacketInterarrivalSec)
}

// MeanSessionDurationSec returns the average packet-service session time
// 1/mu_GPRS = N_pc (D_pc + N_d D_d), as derived in Section 3.
func (p SessionParams) MeanSessionDurationSec() float64 {
	return p.NumPacketCalls * (p.ReadingTimeSec + p.PacketsPerCall*p.PacketInterarrivalSec)
}

// MeanPacketCallDurationSec returns the average duration of one packet call,
// 1/alpha = N_d * D_d.
func (p SessionParams) MeanPacketCallDurationSec() float64 {
	return p.PacketsPerCall * p.PacketInterarrivalSec
}

// MeanOnRateBitsPerSec returns the average source bit rate during a packet
// call (the "8 kbit/s" / "32 kbit/s" labels of Table 3).
func (p SessionParams) MeanOnRateBitsPerSec() float64 {
	return PacketSizeBits / p.PacketInterarrivalSec
}

// PacketsPerSession returns the mean number of data packets generated by one
// session, N_pc * N_d.
func (p SessionParams) PacketsPerSession() float64 {
	return p.NumPacketCalls * p.PacketsPerCall
}

// IPP returns the interrupted-Poisson-process representation of one GPRS
// session (Fig. 4): packets are generated at rate Lambda while the source is
// in the on state; the on state holds for an exponential time with rate Alpha
// (on -> off) and the off state with rate Beta (off -> on).
func (p SessionParams) IPP() IPP {
	return IPP{
		Lambda: 1 / p.PacketInterarrivalSec,
		Alpha:  1 / (p.PacketsPerCall * p.PacketInterarrivalSec),
		Beta:   1 / p.ReadingTimeSec,
	}
}

// IPP is a two-state interrupted Poisson process (on/off MMPP).
type IPP struct {
	// Lambda is the packet generation rate in the on state (packets/s).
	Lambda float64
	// Alpha is the on -> off transition rate (1/s); mean on time is 1/Alpha.
	Alpha float64
	// Beta is the off -> on transition rate (1/s); mean off time is 1/Beta.
	Beta float64
}

// OnProbability returns the steady-state probability that the source is in
// the on state, beta / (alpha + beta). New GPRS sessions are assumed to start
// in steady state (Section 4.1).
func (ipp IPP) OnProbability() float64 {
	return ipp.Beta / (ipp.Alpha + ipp.Beta)
}

// OffProbability returns the steady-state probability of the off state.
func (ipp IPP) OffProbability() float64 {
	return ipp.Alpha / (ipp.Alpha + ipp.Beta)
}

// MeanRate returns the long-run average packet generation rate of the source,
// Lambda * P(on).
func (ipp IPP) MeanRate() float64 {
	return ipp.Lambda * ipp.OnProbability()
}

// MeanBitRate returns the long-run average bit rate of the source.
func (ipp IPP) MeanBitRate() float64 {
	return ipp.MeanRate() * PacketSizeBits
}

// BurstinessRatio returns the peak-to-mean rate ratio of the source, a common
// burstiness measure for on/off traffic.
func (ipp IPP) BurstinessRatio() float64 {
	on := ipp.OnProbability()
	if on == 0 {
		return math.Inf(1)
	}
	return 1 / on
}

// AggregateMMPP describes the superposition of m statistically identical
// IPPs as a single (m+1)-state MMPP (Section 4.1): state r means that r of
// the m sources are in the off state and m-r sources are generating packets.
type AggregateMMPP struct {
	Source IPP
	M      int
}

// StationaryDistribution returns the binomial stationary distribution of the
// aggregated MMPP: r off sources with probability C(m,r) pOff^r pOn^(m-r),
// built up one source (one Bernoulli trial) at a time.
func (a AggregateMMPP) StationaryDistribution() []float64 {
	p := a.Source.OffProbability()
	dist := make([]float64, a.M+1)
	dist[0] = 1
	for i := 0; i < a.M; i++ {
		next := make([]float64, a.M+1)
		for k := 0; k <= i; k++ {
			next[k] += dist[k] * (1 - p)
			next[k+1] += dist[k] * p
		}
		copy(dist, next)
	}
	return dist
}
