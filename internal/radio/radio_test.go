package radio

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCodingSchemeRates(t *testing.T) {
	if CS2.DataRateBitsPerSec() != 13_400 {
		t.Errorf("CS-2 rate = %v, want 13400 (paper, Section 3)", CS2.DataRateBitsPerSec())
	}
	if !(CS1.DataRateBitsPerSec() < CS2.DataRateBitsPerSec() &&
		CS2.DataRateBitsPerSec() < CS3.DataRateBitsPerSec() &&
		CS3.DataRateBitsPerSec() < CS4.DataRateBitsPerSec()) {
		t.Error("coding scheme rates should be strictly increasing CS-1..CS-4")
	}
	if CodingScheme(0).DataRateBitsPerSec() != 0 || CodingScheme(9).DataRateBitsPerSec() != 0 {
		t.Error("invalid schemes should have zero rate")
	}
}

func TestCodingSchemeStrings(t *testing.T) {
	names := map[CodingScheme]string{CS1: "CS-1", CS2: "CS-2", CS3: "CS-3", CS4: "CS-4"}
	for cs, want := range names {
		if cs.String() != want {
			t.Errorf("String() = %q, want %q", cs.String(), want)
		}
		if !cs.Valid() {
			t.Errorf("%v should be valid", cs)
		}
	}
	if CodingScheme(0).Valid() || CodingScheme(5).Valid() {
		t.Error("out-of-range schemes should be invalid")
	}
	if CodingScheme(7).String() == "" {
		t.Error("unknown scheme should still render")
	}
}

func TestPacketServiceRateCS2(t *testing.T) {
	// 13.4 kbit/s over 480-byte packets = about 3.49 packets/s per PDCH.
	got := CS2.PacketServiceRatePerPDCH()
	want := 13400.0 / 3840.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mu_service = %v, want %v", got, want)
	}
}

func TestRadioBlocksPerPacket(t *testing.T) {
	// CS-2 carries 268 bits per 20 ms block; a 480-byte packet needs
	// ceil(3840/268) = 15 blocks.
	if got := CS2.RadioBlocksPerPacket(480); got != 15 {
		t.Errorf("CS-2 blocks per 480-byte packet = %d, want 15", got)
	}
	if got := CS4.RadioBlocksPerPacket(480); got != 9 {
		t.Errorf("CS-4 blocks per 480-byte packet = %d, want 9", got)
	}
	if CodingScheme(0).RadioBlocksPerPacket(480) != 0 {
		t.Error("invalid scheme should produce zero blocks")
	}
}

func TestFrameTiming(t *testing.T) {
	if math.Abs(FrameDurationSec-0.004616) > 1e-6 {
		t.Errorf("TDMA frame duration = %v, want about 4.615 ms", FrameDurationSec)
	}
	if SlotsPerFrame != 8 || BitsPerSlot != 114 {
		t.Error("GSM slot constants do not match the paper")
	}
}

func TestChannelPlanValidate(t *testing.T) {
	good := ChannelPlan{TotalChannels: 20, ReservedPDCH: 1, Coding: CS2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []ChannelPlan{
		{TotalChannels: 0, ReservedPDCH: 0, Coding: CS2},
		{TotalChannels: 20, ReservedPDCH: -1, Coding: CS2},
		{TotalChannels: 20, ReservedPDCH: 21, Coding: CS2},
		{TotalChannels: 20, ReservedPDCH: 1, Coding: CodingScheme(0)},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: expected ErrInvalidConfig, got %v", i, err)
		}
	}
}

func TestChannelPlanPartitioning(t *testing.T) {
	p := ChannelPlan{TotalChannels: 20, ReservedPDCH: 4, Coding: CS2}
	if p.GSMChannels() != 16 {
		t.Errorf("GSM channels = %d, want 16", p.GSMChannels())
	}
	if !p.CanAdmitGSMCall(15) {
		t.Error("call 16 should be admitted")
	}
	if p.CanAdmitGSMCall(16) {
		t.Error("GSM must not take reserved PDCHs")
	}
}

func TestAvailableAndUsablePDCH(t *testing.T) {
	p := ChannelPlan{TotalChannels: 20, ReservedPDCH: 1, Coding: CS2}
	// No voice calls: all 20 channels can serve data.
	if got := p.AvailablePDCH(0); got != 20 {
		t.Errorf("available with 0 calls = %d, want 20", got)
	}
	// Full voice load (19 calls): only the reserved PDCH remains.
	if got := p.AvailablePDCH(19); got != 1 {
		t.Errorf("available with 19 calls = %d, want 1", got)
	}
	// Usable is limited by 8 PDCHs per packet.
	if got := p.UsablePDCH(0, 1); got != 8 {
		t.Errorf("usable with 1 packet = %d, want 8", got)
	}
	if got := p.UsablePDCH(0, 3); got != 20 {
		t.Errorf("usable with 3 packets = %d, want 20 (channel limited)", got)
	}
	if got := p.UsablePDCH(0, 0); got != 0 {
		t.Errorf("usable with empty buffer = %d, want 0", got)
	}
	if got := p.UsablePDCH(19, 10); got != 1 {
		t.Errorf("usable under full voice load = %d, want 1", got)
	}
}

// Property: usable PDCHs never exceed available channels, never exceed 8k,
// and are monotone in the number of queued packets.
func TestUsablePDCHProperties(t *testing.T) {
	prop := func(nSeed, kSeed uint8, reservedSeed uint8) bool {
		plan := ChannelPlan{TotalChannels: 20, ReservedPDCH: int(reservedSeed % 5), Coding: CS2}
		n := int(nSeed) % (plan.GSMChannels() + 1)
		k := int(kSeed) % 101
		u := plan.UsablePDCH(n, k)
		if u > plan.AvailablePDCH(n) || u > MaxSlotsPerMobile*k || u < 0 {
			return false
		}
		return plan.UsablePDCH(n, k+1) >= u
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
