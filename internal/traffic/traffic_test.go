package traffic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSessionDurationMatchesTable3(t *testing.T) {
	// Table 3 of the paper lists the mean GPRS session durations.
	cases := []struct {
		model Model
		want  float64
	}{
		{Model1, 2122.5},
		{Model2, 2075.625},
		{Model3, 312.5},
	}
	for _, c := range cases {
		got := c.model.Spec().Session.MeanSessionDurationSec()
		if !almostEqual(got, c.want, 0.5) {
			t.Errorf("%v: session duration = %v, want %v", c.model, got, c.want)
		}
	}
}

func TestOnRatesMatchTable3(t *testing.T) {
	// Traffic model 1 is the 8 kbit/s model, models 2 and 3 are 32 kbit/s.
	if r := Model1.Spec().Session.MeanOnRateBitsPerSec(); !almostEqual(r, 7680, 1) {
		t.Errorf("model 1 on rate = %v, want 7680 (approx 8 kbit/s)", r)
	}
	if r := Model2.Spec().Session.MeanOnRateBitsPerSec(); !almostEqual(r, 30720, 1) {
		t.Errorf("model 2 on rate = %v, want 30720 (approx 32 kbit/s)", r)
	}
	if r := Model3.Spec().Session.MeanOnRateBitsPerSec(); !almostEqual(r, 30720, 1) {
		t.Errorf("model 3 on rate = %v, want 30720 (approx 32 kbit/s)", r)
	}
}

func TestPacketCallDurations(t *testing.T) {
	// Table 3: 1/alpha = 12.5 s for model 1 and 3.1(25) s for models 2 and 3.
	if d := Model1.Spec().Session.MeanPacketCallDurationSec(); !almostEqual(d, 12.5, 1e-9) {
		t.Errorf("model 1 packet call duration = %v, want 12.5", d)
	}
	if d := Model2.Spec().Session.MeanPacketCallDurationSec(); !almostEqual(d, 3.125, 1e-9) {
		t.Errorf("model 2 packet call duration = %v, want 3.125", d)
	}
	if d := Model3.Spec().Session.MeanPacketCallDurationSec(); !almostEqual(d, 3.125, 1e-9) {
		t.Errorf("model 3 packet call duration = %v, want 3.125", d)
	}
}

func TestModel3OnOffSymmetry(t *testing.T) {
	// Model 3 is defined by setting the off duration equal to the on duration.
	spec := Model3.Spec()
	ipp := spec.Session.IPP()
	if !almostEqual(1/ipp.Alpha, 1/ipp.Beta, 1e-9) {
		t.Errorf("model 3 should have equal on (%v) and off (%v) durations", 1/ipp.Alpha, 1/ipp.Beta)
	}
	if !almostEqual(ipp.OnProbability(), 0.5, 1e-12) {
		t.Errorf("model 3 on probability = %v, want 0.5", ipp.OnProbability())
	}
	if spec.MaxSessions != 20 {
		t.Errorf("model 3 M = %d, want 20", spec.MaxSessions)
	}
}

func TestModelMaxSessions(t *testing.T) {
	if Model1.Spec().MaxSessions != 50 || Model2.Spec().MaxSessions != 50 {
		t.Error("models 1 and 2 should allow 50 concurrent sessions")
	}
}

func TestIPPDerivation(t *testing.T) {
	p := Model1.Spec().Session
	ipp := p.IPP()
	if !almostEqual(ipp.Lambda, 2.0, 1e-12) {
		t.Errorf("lambda_packet = %v, want 2 (one packet per 0.5 s)", ipp.Lambda)
	}
	if !almostEqual(1/ipp.Alpha, 12.5, 1e-9) {
		t.Errorf("mean on time = %v, want 12.5", 1/ipp.Alpha)
	}
	if !almostEqual(1/ipp.Beta, 412, 1e-9) {
		t.Errorf("mean off time = %v, want 412", 1/ipp.Beta)
	}
}

func TestIPPMeanRateConsistency(t *testing.T) {
	// The long-run packet rate must equal packets-per-session / session
	// duration.
	for _, m := range AllModels() {
		p := m.Spec().Session
		ipp := p.IPP()
		byIPP := ipp.Lambda * ipp.OnProbability()
		byCounting := p.NumPacketCalls * p.PacketsPerCall / p.MeanSessionDurationSec()
		if math.Abs(byIPP-byCounting)/byCounting > 1e-9 {
			t.Errorf("%v: IPP mean rate %v != packets/duration %v", m, byIPP, byCounting)
		}
		if byIPP*PacketSizeBits <= 0 {
			t.Errorf("%v: non-positive mean bit rate", m)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []SessionParams{
		{NumPacketCalls: 0, ReadingTimeSec: 1, PacketsPerCall: 1, PacketInterarrivalSec: 1},
		{NumPacketCalls: 1, ReadingTimeSec: -1, PacketsPerCall: 1, PacketInterarrivalSec: 1},
		{NumPacketCalls: 1, ReadingTimeSec: 1, PacketsPerCall: math.NaN(), PacketInterarrivalSec: 1},
		{NumPacketCalls: 1, ReadingTimeSec: 1, PacketsPerCall: 1, PacketInterarrivalSec: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrInvalidParameter) {
			t.Errorf("case %d: expected ErrInvalidParameter, got %v", i, err)
		}
	}
}

func TestAllModelsValid(t *testing.T) {
	models := AllModels()
	if len(models) != 3 {
		t.Fatalf("AllModels returned %d models, want 3", len(models))
	}
	for _, m := range models {
		spec := m.Spec()
		if err := spec.Session.Validate(); err != nil {
			t.Errorf("%v: invalid session params: %v", m, err)
		}
		if spec.MaxSessions <= 0 {
			t.Errorf("%v: non-positive MaxSessions", m)
		}
		if m.String() == "unknown traffic model" {
			t.Errorf("missing name for %d", m)
		}
	}
	if Model(99).String() != "unknown traffic model" {
		t.Error("unknown model should say so")
	}
	if Model(99).Spec().MaxSessions != 0 {
		t.Error("unknown model spec should be zero-valued")
	}
}

func TestAggregateMMPPStationaryDistribution(t *testing.T) {
	ipp := Model3.Spec().Session.IPP() // p(on) = 0.5
	agg := AggregateMMPP{Source: ipp, M: 10}
	dist := agg.StationaryDistribution()
	var sum, mean float64
	for r, p := range dist {
		if p < 0 {
			t.Fatalf("negative probability at %d", r)
		}
		sum += p
		mean += float64(r) * p
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("stationary distribution sums to %v", sum)
	}
	// With p(off) = 0.5 the mean number of off sources is M/2.
	if !almostEqual(mean, 5, 1e-9) {
		t.Errorf("mean off sources = %v, want 5", mean)
	}
	// Detailed balance of the birth-death MMPP chain: one of the m-r on
	// sources switches off at rate (m-r)·alpha, one of r+1 off sources
	// switches on at rate (r+1)·beta.
	for r := 0; r < agg.M; r++ {
		lhs := dist[r] * float64(agg.M-r) * ipp.Alpha
		rhs := dist[r+1] * float64(r+1) * ipp.Beta
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Errorf("detailed balance violated at r=%d: %v vs %v", r, lhs, rhs)
		}
	}
}

func TestAggregateMMPPZeroSessions(t *testing.T) {
	agg := AggregateMMPP{Source: Model1.Spec().Session.IPP(), M: 0}
	dist := agg.StationaryDistribution()
	if len(dist) != 1 || dist[0] != 1 {
		t.Errorf("M=0 distribution = %v, want [1]", dist)
	}
}

// Property: for any m and any valid IPP, the binomial stationary distribution
// satisfies detailed balance and its mean aggregate arrival rate weighted by
// the distribution equals m * lambda * P(on).
func TestAggregateMMPPRateProperty(t *testing.T) {
	// The rate averaged over the binomial stationary distribution must be m
	// times the per-session IPP mean rate (the MMPP aggregation of Section
	// 4.1).
	holds := func(ipp IPP, m int) bool {
		// In state r the m-r on sources each send at rate lambda.
		var weighted float64
		for r, p := range (AggregateMMPP{Source: ipp, M: m}).StationaryDistribution() {
			weighted += p * float64(m-r) * ipp.Lambda
		}
		want := float64(m) * ipp.Lambda * ipp.OnProbability()
		return math.Abs(weighted-want) <= 1e-9*(1+want)
	}
	// The session IPPs of the paper's three traffic models.
	for _, model := range AllModels() {
		ipp := model.Spec().Session.IPP()
		for m := 1; m <= 30; m++ {
			if !holds(ipp, m) {
				t.Errorf("%v, m = %d: aggregate rate differs from m times the IPP mean", model, m)
			}
		}
	}
	prop := func(mSeed uint8, lamSeed, aSeed, bSeed uint16) bool {
		return holds(IPP{
			Lambda: 0.01 + float64(lamSeed%1000)/100,
			Alpha:  0.01 + float64(aSeed%1000)/100,
			Beta:   0.01 + float64(bSeed%1000)/100,
		}, int(mSeed%30)+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIPPOffProbabilityComplement(t *testing.T) {
	ipp := Model2.Spec().Session.IPP()
	if !almostEqual(ipp.OnProbability()+ipp.OffProbability(), 1, 1e-12) {
		t.Error("on and off probabilities should sum to 1")
	}
}

func TestParseModel(t *testing.T) {
	for _, m := range AllModels() {
		if got, err := ParseModel(int(m)); err != nil || got != m {
			t.Errorf("ParseModel(%d) = %v, %v; want %v, nil", int(m), got, err, m)
		}
	}
	for _, id := range []int{-1, 0, 4} {
		if _, err := ParseModel(id); !errors.Is(err, ErrInvalidParameter) {
			t.Errorf("ParseModel(%d) error = %v, want ErrInvalidParameter", id, err)
		}
	}
}
