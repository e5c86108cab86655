package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/radio"
	"repro/internal/traffic"
)

// quickConfig returns a short simulation of the scaled-down cell used in unit
// tests: it runs in well under a second but exercises voice calls, sessions,
// packet calls, radio transmission, handovers and (optionally) TCP.
func quickConfig(enableTCP bool) Config {
	cfg := DefaultConfig(traffic.Model3, 0.5)
	cfg.EnableTCP = enableTCP
	cfg.WarmupSec = 200
	cfg.MeasurementSec = 1500
	cfg.Batches = 5
	cfg.Seed = 7
	return cfg
}

func runQuick(t *testing.T, cfg Config) Results {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	good := quickConfig(true)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	zero := good
	zero.WarmupSec, zero.MeasurementSec, zero.Batches = 0, 0, 0
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero run lengths (no warm-up, default measurement and batches) rejected: %v", err)
	}
	// want, when set, is the field the error must name: with two invalid
	// fields, validation reports the first in its fixed check order.
	mutations := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"channels", func(c *Config) { c.Channels.TotalChannels = 0 }, ""},
		{"buffer", func(c *Config) { c.BufferSize = 0 }, ""},
		{"sessions", func(c *Config) { c.MaxSessions = 0 }, ""},
		{"session params", func(c *Config) { c.Session.PacketsPerCall = 0 }, ""},
		{"rate", func(c *Config) { c.TotalCallRate = math.NaN() }, ""},
		{"fraction", func(c *Config) { c.GPRSFraction = 2 }, ""},
		{"call duration", func(c *Config) { c.GSMCallDurationSec = 0 }, ""},
		{"dwell", func(c *Config) { c.GSMDwellTimeSec = -1 }, ""},
		{"gprs dwell", func(c *Config) { c.GPRSDwellTimeSec = 0 }, ""},
		{"core-network delay", func(c *Config) { c.CoreNetworkDelaySec = math.NaN() }, ""},
		{"uplink delay", func(c *Config) { c.UplinkDelaySec = math.Inf(1) }, ""},
		{"NaN warm-up", func(c *Config) { c.WarmupSec = math.NaN() }, "warm-up"},
		{"negative warm-up", func(c *Config) { c.WarmupSec = -1 }, "warm-up"},
		{"infinite warm-up", func(c *Config) { c.WarmupSec = math.Inf(1) }, "warm-up"},
		{"NaN measurement", func(c *Config) { c.MeasurementSec = math.NaN() }, "measurement time"},
		{"negative measurement", func(c *Config) { c.MeasurementSec = -5 }, "measurement time"},
		{"infinite measurement", func(c *Config) { c.MeasurementSec = math.Inf(1) }, "measurement time"},
		{"negative batches", func(c *Config) { c.Batches = -1 }, "batches"},
		{"call duration and gprs dwell", func(c *Config) {
			c.GSMCallDurationSec = 0
			c.GPRSDwellTimeSec = -1
		}, "GSM call duration"},
		{"voice and data rates", func(c *Config) {
			c.Rates = uniformRates{voice: math.NaN(), data: -1}
		}, "voice rate"},
	}
	for _, m := range mutations {
		cfg := quickConfig(true)
		m.mod(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: expected ErrInvalidConfig, got %v", m.name, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New should reject the configuration", m.name)
		}
		for i := 0; i < 20 && m.want != ""; i++ {
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), m.want) {
				t.Errorf("%s: error %v does not name %q", m.name, err, m.want)
				break
			}
		}
	}
}

func TestDefaultConfigMatchesPaperBaseSetting(t *testing.T) {
	cfg := DefaultConfig(traffic.Model3, 1.0)
	if cfg.Channels.TotalChannels != 20 || cfg.Channels.ReservedPDCH != 1 {
		t.Error("channel plan does not match Table 2")
	}
	if cfg.BufferSize != 100 || cfg.MaxSessions != 20 {
		t.Error("buffer or session limit does not match the paper")
	}
	if cfg.Channels.Coding != radio.CS2 {
		t.Error("coding scheme should be CS-2")
	}
	if !cfg.EnableTCP {
		t.Error("the validation simulator uses TCP flow control")
	}
}

func TestRunProducesPlausibleMeasures(t *testing.T) {
	res := runQuick(t, quickConfig(true))

	if res.Events == 0 {
		t.Fatal("no events were processed")
	}
	if res.PacketsOffered == 0 || res.PacketsDelivered == 0 {
		t.Fatalf("no packet traffic simulated: %+v", res)
	}
	cfg := quickConfig(true)
	if res.CarriedDataTraffic.Mean < 0 || res.CarriedDataTraffic.Mean > float64(cfg.Channels.TotalChannels) {
		t.Errorf("CDT = %v out of range", res.CarriedDataTraffic.Mean)
	}
	if res.CarriedVoiceTraffic.Mean <= 0 || res.CarriedVoiceTraffic.Mean > float64(cfg.Channels.GSMChannels()) {
		t.Errorf("CVT = %v out of range", res.CarriedVoiceTraffic.Mean)
	}
	if res.PacketLossProbability.Mean < 0 || res.PacketLossProbability.Mean > 1 {
		t.Errorf("PLP = %v out of range", res.PacketLossProbability.Mean)
	}
	if res.QueueingDelay.Mean < 0 {
		t.Errorf("QD = %v negative", res.QueueingDelay.Mean)
	}
	if res.AverageSessions.Mean <= 0 || res.AverageSessions.Mean > float64(cfg.MaxSessions) {
		t.Errorf("AGS = %v out of range", res.AverageSessions.Mean)
	}
	if res.ThroughputPerUserBits.Mean <= 0 {
		t.Errorf("ATU = %v, want positive", res.ThroughputPerUserBits.Mean)
	}
	if res.GSMBlockingProbability.Mean < 0 || res.GSMBlockingProbability.Mean > 1 {
		t.Errorf("GSM blocking = %v", res.GSMBlockingProbability.Mean)
	}
	if res.PacketsDelivered > res.PacketsOffered {
		t.Errorf("delivered %d exceeds offered %d", res.PacketsDelivered, res.PacketsOffered)
	}
	if res.String() == "" {
		t.Error("String() should render the results")
	}
}

func TestOpenLoopModeRuns(t *testing.T) {
	res := runQuick(t, quickConfig(false))
	if res.PacketsDelivered == 0 {
		t.Fatal("open-loop simulation delivered no packets")
	}
	if res.TCPTimeouts != 0 || res.TCPFastRecovers != 0 {
		t.Error("open-loop mode should not report TCP events")
	}
}

func TestReproducibleWithSameSeed(t *testing.T) {
	cfg := quickConfig(true)
	a := runQuick(t, cfg)
	b := runQuick(t, cfg)
	if a.PacketsOffered != b.PacketsOffered || a.PacketsDelivered != b.PacketsDelivered {
		t.Errorf("same seed produced different packet counts: %d/%d vs %d/%d",
			a.PacketsOffered, a.PacketsDelivered, b.PacketsOffered, b.PacketsDelivered)
	}
	if math.Abs(a.CarriedDataTraffic.Mean-b.CarriedDataTraffic.Mean) > 1e-12 {
		t.Error("same seed produced different CDT")
	}
	cfg.Seed = 99
	c := runQuick(t, cfg)
	if a.PacketsOffered == c.PacketsOffered && a.Events == c.Events {
		t.Error("different seeds should produce different sample paths")
	}
}

func TestNoGPRSTraffic(t *testing.T) {
	cfg := quickConfig(true)
	cfg.GPRSFraction = 0
	res := runQuick(t, cfg)
	if res.PacketsOffered != 0 || res.CarriedDataTraffic.Mean != 0 {
		t.Errorf("no GPRS users should mean no data traffic, got offered=%d CDT=%v",
			res.PacketsOffered, res.CarriedDataTraffic.Mean)
	}
	if res.CarriedVoiceTraffic.Mean <= 0 {
		t.Error("voice should still be carried")
	}
}

func TestNoVoiceTraffic(t *testing.T) {
	cfg := quickConfig(true)
	cfg.GPRSFraction = 1
	cfg.TotalCallRate = 0.1
	res := runQuick(t, cfg)
	if res.CarriedVoiceTraffic.Mean != 0 {
		t.Errorf("CVT = %v with no voice users", res.CarriedVoiceTraffic.Mean)
	}
	if res.PacketsDelivered == 0 {
		t.Error("data should flow with 100% GPRS users")
	}
}

func TestHigherLoadIncreasesVoiceOccupancy(t *testing.T) {
	low := quickConfig(true)
	low.TotalCallRate = 0.1
	high := quickConfig(true)
	high.TotalCallRate = 1.0
	resLow := runQuick(t, low)
	resHigh := runQuick(t, high)
	if resHigh.CarriedVoiceTraffic.Mean <= resLow.CarriedVoiceTraffic.Mean {
		t.Errorf("CVT should grow with load: %v vs %v",
			resHigh.CarriedVoiceTraffic.Mean, resLow.CarriedVoiceTraffic.Mean)
	}
	if resHigh.AverageSessions.Mean <= resLow.AverageSessions.Mean {
		t.Errorf("AGS should grow with load: %v vs %v",
			resHigh.AverageSessions.Mean, resLow.AverageSessions.Mean)
	}
}

func TestSmallBufferCausesLoss(t *testing.T) {
	cfg := quickConfig(false)
	cfg.BufferSize = 3
	cfg.TotalCallRate = 1.5
	cfg.GPRSFraction = 0.3
	res := runQuick(t, cfg)
	if res.PacketsLost == 0 {
		t.Error("a 3-packet buffer under heavy load should drop packets")
	}
	if res.PacketLossProbability.Mean <= 0 {
		t.Error("PLP should be positive")
	}
}

func TestTCPReactsToCongestion(t *testing.T) {
	cfg := quickConfig(true)
	cfg.BufferSize = 5
	cfg.TotalCallRate = 1.5
	cfg.GPRSFraction = 0.3
	res := runQuick(t, cfg)
	if res.TCPTimeouts+res.TCPFastRecovers == 0 {
		t.Error("congestion losses should trigger TCP recovery events")
	}
}

func TestHandoversHappen(t *testing.T) {
	res := runQuick(t, quickConfig(true))
	if res.HandoversIn == 0 || res.HandoversOut == 0 {
		t.Errorf("expected handover flow through the mid cell, got in=%d out=%d",
			res.HandoversIn, res.HandoversOut)
	}
	// In steady state the incoming and outgoing flows should be of the same
	// order of magnitude (they balance exactly only in expectation).
	ratio := float64(res.HandoversIn) / float64(res.HandoversOut)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("handover flows badly unbalanced: in=%d out=%d", res.HandoversIn, res.HandoversOut)
	}
}

func TestRingTopologyRuns(t *testing.T) {
	ring, err := cluster.NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(true)
	cfg.Topology = ring
	res := runQuick(t, cfg)
	if res.Events == 0 {
		t.Error("ring topology simulation did not run")
	}
}

func TestMoreReservedPDCHsImproveDataService(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation runs skipped in -short mode")
	}
	// Under heavy voice load, reserving more PDCHs must not increase the
	// packet queueing delay (Fig. 9 of the paper).
	base := quickConfig(false)
	base.TotalCallRate = 1.5
	base.MeasurementSec = 3000

	one := base
	one.Channels.ReservedPDCH = 1
	resOne := runQuick(t, one)

	four := base
	four.Channels.ReservedPDCH = 4
	resFour := runQuick(t, four)

	if resFour.QueueingDelay.Mean > resOne.QueueingDelay.Mean*1.5+0.5 {
		t.Errorf("4 reserved PDCHs should not have much higher delay: %v vs %v",
			resFour.QueueingDelay.Mean, resOne.QueueingDelay.Mean)
	}
}

func TestConfidenceIntervalsAreFinite(t *testing.T) {
	res := runQuick(t, quickConfig(true))
	for name, iv := range map[string]float64{
		"CDT": res.CarriedDataTraffic.HalfWidth,
		"CVT": res.CarriedVoiceTraffic.HalfWidth,
		"AGS": res.AverageSessions.HalfWidth,
	} {
		if math.IsInf(iv, 0) || math.IsNaN(iv) {
			t.Errorf("%s confidence half-width = %v, want finite", name, iv)
		}
	}
}
