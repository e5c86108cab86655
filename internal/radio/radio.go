// Package radio models the GSM/GPRS radio interface abstractions used by the
// paper (Section 2): physical channels obtained from FDMA/TDMA, the
// partitioning of channels into GSM traffic channels (TCH) and GPRS packet
// data channels (PDCH) with fixed and on-demand PDCHs, the GPRS coding
// schemes CS-1..CS-4, and the timing of TDMA frames used by the detailed
// simulator to segment network-layer packets into radio blocks.
package radio

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/traffic"
)

// ErrInvalidConfig is returned for inconsistent radio configurations.
var ErrInvalidConfig = errors.New("radio: invalid configuration")

// Physical-layer constants of GSM (Section 2 of the paper).
const (
	// SlotsPerFrame is the number of time slots per TDMA frame.
	SlotsPerFrame = 8
	// SlotDurationSec is the duration of one time slot (0.577 ms).
	SlotDurationSec = 0.000577
	// FrameDurationSec is the duration of one TDMA frame (8 slots).
	FrameDurationSec = SlotsPerFrame * SlotDurationSec
	// BitsPerSlot is the payload of one time slot (114 bits of information).
	BitsPerSlot = 114
	// CarrierBandwidthHz is the width of one GSM carrier (200 kHz).
	CarrierBandwidthHz = 200_000
	// CarriersPerBand is the number of single-carrier channels per GSM band.
	CarriersPerBand = 124
	// MaxSlotsPerMobile is the multislot limit: a mobile station can be
	// assigned at most 8 time slots of a TDMA frame.
	MaxSlotsPerMobile = 8
	// MaxMobilesPerSlot is the sharing limit: up to 8 mobile stations can
	// share one PDCH.
	MaxMobilesPerSlot = 8
)

// CodingScheme enumerates the GPRS channel coding schemes CS-1 .. CS-4.
type CodingScheme int

const (
	// CS1 is the most robust coding scheme (code rate 1/2).
	CS1 CodingScheme = iota + 1
	// CS2 is the coding scheme assumed throughout the paper (13.4 kbit/s).
	CS2
	// CS3 offers a higher rate with less protection.
	CS3
	// CS4 applies no coding (code rate 1).
	CS4
)

// String returns the conventional name of the coding scheme.
func (cs CodingScheme) String() string {
	switch cs {
	case CS1:
		return "CS-1"
	case CS2:
		return "CS-2"
	case CS3:
		return "CS-3"
	case CS4:
		return "CS-4"
	default:
		return fmt.Sprintf("CS-?(%d)", int(cs))
	}
}

// DataRateBitsPerSec returns the net RLC data rate of one PDCH under the
// coding scheme. CS-2 yields the 13.4 kbit/s used throughout the paper; the
// other values follow the GPRS specification (GSM 03.60 / 05.03).
func (cs CodingScheme) DataRateBitsPerSec() float64 {
	switch cs {
	case CS1:
		return 9_050
	case CS2:
		return 13_400
	case CS3:
		return 15_600
	case CS4:
		return 21_400
	default:
		return 0
	}
}

// Valid reports whether cs is one of CS-1..CS-4.
func (cs CodingScheme) Valid() bool { return cs >= CS1 && cs <= CS4 }

// PacketServiceRatePerPDCH returns the packet service rate mu_service of one
// PDCH in packets per second for the paper's 480-byte network-layer packets:
// data rate / packet size.
func (cs CodingScheme) PacketServiceRatePerPDCH() float64 {
	return cs.DataRateBitsPerSec() / float64(traffic.PacketSizeBits)
}

// RadioBlocksPerPacket returns the number of RLC radio blocks needed to carry
// a packet of the given size under the coding scheme. A radio block occupies
// four TDMA frames on one PDCH; its payload is derived from the net data rate
// and the block transmission time (20 ms).
func (cs CodingScheme) RadioBlocksPerPacket(packetBytes int) int {
	const blockDurationSec = 0.02 // 4 TDMA frames of ~4.615 ms
	payloadBits := cs.DataRateBitsPerSec() * blockDurationSec
	if payloadBits <= 0 {
		return 0
	}
	return int(math.Ceil(float64(packetBytes*8) / payloadBits))
}

// ChannelPlan describes the partitioning of the physical channels of one cell
// into GSM traffic channels and GPRS packet data channels (Fig. 2).
type ChannelPlan struct {
	// TotalChannels is the overall number of physical channels N in the cell.
	TotalChannels int
	// ReservedPDCH is the number of channels permanently reserved for GPRS
	// (N_GPRS).
	ReservedPDCH int
	// Coding is the channel coding scheme in use (CS-2 in the paper).
	Coding CodingScheme
}

// Validate reports whether the plan is consistent.
func (p ChannelPlan) Validate() error {
	if p.TotalChannels <= 0 {
		return fmt.Errorf("%w: total channels = %d", ErrInvalidConfig, p.TotalChannels)
	}
	if p.ReservedPDCH < 0 || p.ReservedPDCH > p.TotalChannels {
		return fmt.Errorf("%w: reserved PDCH = %d with %d channels",
			ErrInvalidConfig, p.ReservedPDCH, p.TotalChannels)
	}
	if !p.Coding.Valid() {
		return fmt.Errorf("%w: coding scheme %v", ErrInvalidConfig, p.Coding)
	}
	return nil
}

// GSMChannels returns the number of channels usable by GSM voice calls,
// N_GSM = N - N_GPRS. On-demand channels are shared with GPRS but GSM has
// priority on them.
func (p ChannelPlan) GSMChannels() int { return p.TotalChannels - p.ReservedPDCH }

// AvailablePDCH returns the number of channels available for packet transfer
// when n GSM calls are active: all channels not used by voice, i.e. N - n
// (the reserved PDCHs plus every idle on-demand channel), clamped at zero.
func (p ChannelPlan) AvailablePDCH(activeGSMCalls int) int {
	avail := p.TotalChannels - activeGSMCalls
	if avail < p.ReservedPDCH {
		avail = p.ReservedPDCH
	}
	if avail < 0 {
		avail = 0
	}
	return avail
}

// UsablePDCH returns the number of PDCHs actually usable for data transfer in
// a state with n active GSM calls and k queued packets: min(N - n, 8k), the
// quantity the paper denotes by the channel utilization of state (k,n,m,r).
func (p ChannelPlan) UsablePDCH(activeGSMCalls, queuedPackets int) int {
	avail := p.AvailablePDCH(activeGSMCalls)
	byPackets := MaxSlotsPerMobile * queuedPackets
	if byPackets < avail {
		return byPackets
	}
	return avail
}

// CanAdmitGSMCall reports whether an arriving GSM call can be accepted when n
// calls are already active: GSM calls may use every channel except the
// permanently reserved PDCHs.
func (p ChannelPlan) CanAdmitGSMCall(activeGSMCalls int) bool {
	return activeGSMCalls < p.GSMChannels()
}
