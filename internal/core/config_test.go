package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/radio"
	"repro/internal/traffic"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBaseConfigMatchesTable2(t *testing.T) {
	cfg := BaseConfig(traffic.Model3, 0.5)
	if cfg.Channels.TotalChannels != 20 {
		t.Errorf("N = %d, want 20", cfg.Channels.TotalChannels)
	}
	if cfg.Channels.ReservedPDCH != 1 {
		t.Errorf("N_GPRS = %d, want 1", cfg.Channels.ReservedPDCH)
	}
	if cfg.BufferSize != 100 {
		t.Errorf("K = %d, want 100", cfg.BufferSize)
	}
	if cfg.Channels.Coding != radio.CS2 {
		t.Errorf("coding = %v, want CS-2", cfg.Channels.Coding)
	}
	if cfg.GSMCallDurationSec != 120 || cfg.GSMDwellTimeSec != 60 || cfg.GPRSDwellTimeSec != 120 {
		t.Error("GSM/GPRS durations do not match Table 2")
	}
	if cfg.GPRSFraction != 0.05 {
		t.Errorf("GPRS fraction = %v, want 0.05", cfg.GPRSFraction)
	}
	if cfg.MaxSessions != 20 {
		t.Errorf("M = %d, want 20 for traffic model 3", cfg.MaxSessions)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("base config invalid: %v", err)
	}
}

func TestBaseConfigTrafficModel1(t *testing.T) {
	cfg := BaseConfig(traffic.Model1, 1.0)
	if cfg.MaxSessions != 50 {
		t.Errorf("M = %d, want 50 for traffic model 1", cfg.MaxSessions)
	}
	rates := cfg.DeriveRates()
	if !almostEqual(1/rates.GPRSServiceRate, 2122.5, 0.1) {
		t.Errorf("session duration = %v, want 2122.5", 1/rates.GPRSServiceRate)
	}
}

func TestDeriveRates(t *testing.T) {
	cfg := BaseConfig(traffic.Model1, 1.0)
	r := cfg.DeriveRates()
	if !almostEqual(r.NewGSMCallRate, 0.95, 1e-12) {
		t.Errorf("lambda_GSM = %v, want 0.95", r.NewGSMCallRate)
	}
	if !almostEqual(r.NewGPRSSessionRate, 0.05, 1e-12) {
		t.Errorf("lambda_GPRS = %v, want 0.05", r.NewGPRSSessionRate)
	}
	if !almostEqual(r.GSMServiceRate, 1.0/120, 1e-15) {
		t.Errorf("mu_GSM = %v", r.GSMServiceRate)
	}
	if !almostEqual(r.GSMHandoverRate, 1.0/60, 1e-15) {
		t.Errorf("mu_h,GSM = %v", r.GSMHandoverRate)
	}
	if !almostEqual(r.GPRSHandoverRate, 1.0/120, 1e-15) {
		t.Errorf("mu_h,GPRS = %v", r.GPRSHandoverRate)
	}
	// mu_service = 13.4 kbit/s over 480-byte packets.
	if !almostEqual(r.PacketServiceRate, 13400.0/3840.0, 1e-9) {
		t.Errorf("mu_service = %v", r.PacketServiceRate)
	}
	// lambda_packet = 1/D_d = 2 packets/s for model 1.
	if !almostEqual(r.IPP.Lambda, 2, 1e-12) {
		t.Errorf("lambda_packet = %v, want 2", r.IPP.Lambda)
	}
}

func TestConfigNumStates(t *testing.T) {
	cfg := BaseConfig(traffic.Model1, 1.0)
	// N_GSM = 19, K = 100, M = 50.
	want := 20 * 101 * (51 * 52 / 2)
	if cfg.NumStates() != want {
		t.Errorf("NumStates = %d, want %d", cfg.NumStates(), want)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := BaseConfig(traffic.Model3, 0.5)

	// want, when set, is the field the error must name: with two invalid
	// fields, validation reports the first in its fixed check order.
	mutate := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"bad channels", func(c *Config) { c.Channels.TotalChannels = 0 }, ""},
		{"bad buffer", func(c *Config) { c.BufferSize = 0 }, ""},
		{"bad sessions", func(c *Config) { c.MaxSessions = 0 }, ""},
		{"bad session params", func(c *Config) { c.Session.NumPacketCalls = 0 }, ""},
		{"negative rate", func(c *Config) { c.TotalCallRate = -1 }, ""},
		{"NaN rate", func(c *Config) { c.TotalCallRate = math.NaN() }, ""},
		{"bad fraction", func(c *Config) { c.GPRSFraction = 1.5 }, ""},
		{"bad call duration", func(c *Config) { c.GSMCallDurationSec = 0 }, ""},
		{"bad dwell", func(c *Config) { c.GSMDwellTimeSec = -2 }, ""},
		{"bad gprs dwell", func(c *Config) { c.GPRSDwellTimeSec = math.Inf(1) }, ""},
		{"bad threshold", func(c *Config) { c.FlowControlThreshold = 0 }, ""},
		{"threshold above one", func(c *Config) { c.FlowControlThreshold = 1.2 }, ""},
		{"call duration and gprs dwell", func(c *Config) {
			c.GSMCallDurationSec = 0
			c.GPRSDwellTimeSec = -1
		}, "GSM call duration"},
	}
	for _, tc := range mutate {
		cfg := base
		tc.mod(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: expected ErrInvalidConfig, got %v", tc.name, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New should reject the configuration", tc.name)
		}
		for i := 0; i < 20 && tc.want != ""; i++ {
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v does not name %q", tc.name, err, tc.want)
				break
			}
		}
	}
}

func TestValidConfigVariants(t *testing.T) {
	// Zero reserved PDCHs and zero GPRS users are both legal corner cases
	// used in the paper's figures.
	cfg := BaseConfig(traffic.Model3, 0.2)
	cfg.Channels.ReservedPDCH = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("0 reserved PDCHs should be valid: %v", err)
	}
	cfg = BaseConfig(traffic.Model3, 0.2)
	cfg.GPRSFraction = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("0%% GPRS users should be valid: %v", err)
	}
	// With no call arrivals the empty cell is absorbing: there is no
	// irreducible chain to solve, so the configuration is rejected up front.
	cfg = BaseConfig(traffic.Model3, 0)
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "absorbing") {
		t.Errorf("zero call arrival rate: got %v, want ErrInvalidConfig saying the empty cell is absorbing", err)
	}
}
