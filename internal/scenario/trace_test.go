package scenario

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// compileTemporal compiles a uniform-spatial spec around the given temporal
// profile, returning the rate profile.
func compileTemporal(t *testing.T, tp Temporal) *Profile {
	t.Helper()
	p, err := Spec{Temporal: tp}.Compile(cluster.NewHexCluster(), 0.475, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParseTraceCSVCountMode pins the count-mode conversion on the committed
// sample trace: window counts become rates (arrivals / window length), and
// the final horizon row holds the trace's overall mean rate.
func TestParseTraceCSVCountMode(t *testing.T) {
	data, err := os.ReadFile("testdata/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ParseTraceCSV(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	wantRates := []float64{180.0 / 300, 540.0 / 300, 720.0 / 300, 480.0 / 300, 240.0 / 300, 150.0 / 300,
		2310.0 / 1800}
	for i, want := range wantRates {
		if rows[i].RatePerSec != want {
			t.Errorf("row %d: rate %v, want %v", i, rows[i].RatePerSec, want)
		}
	}
	if rows[2].PayloadBytes != 510 {
		t.Errorf("row 2 payload %v, want 510", rows[2].PayloadBytes)
	}
	// The loaded rows must compile: normalized scales hold their
	// time-weighted mean at 1 over the measured span.
	prof := compileTemporal(t, Temporal{Kind: Trace, Rows: rows})
	var integral float64
	boundaries := []float64{0, 300, 600, 900, 1200, 1500, 1800}
	for i := 0; i+1 < len(boundaries); i++ {
		v, _ := prof.Rates(0, boundaries[i])
		integral += v / 0.475 * (boundaries[i+1] - boundaries[i])
	}
	if mean := integral / 1800; math.Abs(mean-1) > 1e-12 {
		t.Errorf("normalized time-weighted mean scale %v, want 1", mean)
	}
}

// TestParseTraceCSVRateMode covers the rate-mode header and payload-less
// two-column form.
func TestParseTraceCSVRateMode(t *testing.T) {
	rows, err := ParseTraceCSV([]byte("time_sec,rate_per_s\n0,1.5\n60,3.0\n120,0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[1].RatePerSec != 3.0 || rows[2].AtSec != 120 {
		t.Fatalf("unexpected rows %+v", rows)
	}
	if rows[0].PayloadBytes != 0 {
		t.Errorf("two-column trace should have zero payloads, got %v", rows[0].PayloadBytes)
	}
}

// TestParseTraceCSVErrors sweeps the parser's rejection paths; every error
// must wrap both sentinels so callers can match the broad scenario class or
// specifically the schedule shape.
func TestParseTraceCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "empty input"},
		{"bad header", "seconds,rate\n0,1\n", "header"},
		{"bad second column", "time_sec,bananas\n0,1\n", `second column "bananas"`},
		{"bad third column", "time_sec,rate_per_s,kilos\n0,1,2\n", `third column "kilos"`},
		{"non-numeric", "time_sec,rate_per_s\n0,fast\n60,1\n", `"fast" is not a finite number`},
		{"NaN rate", "time_sec,rate_per_s\n0,NaN\n60,1\n", "not a finite number"},
		{"negative time", "time_sec,rate_per_s\n-5,1\n60,2\n", "first trace row must start at 0"},
		{"not at zero", "time_sec,rate_per_s\n10,1\n60,2\n", "first trace row must start at 0"},
		{"non-monotone", "time_sec,rate_per_s\n0,1\n60,2\n30,3\n", "strictly increasing"},
		{"duplicate time", "time_sec,rate_per_s\n0,1\n60,2\n60,3\n", "strictly increasing"},
		{"single row", "time_sec,rate_per_s\n0,1\n", "at least 2 rows"},
		{"negative rate", "time_sec,rate_per_s\n0,1\n60,-2\n", "trace rate -2"},
		{"all zero", "time_sec,rate_per_s\n0,0\n60,0\n", "all zero"},
		{"nonzero horizon count", "time_sec,arrivals\n0,10\n60,5\n", "final count-mode row must carry 0 arrivals"},
		{"negative payload", "time_sec,rate_per_s,payload_bytes\n0,1,480\n60,2,-1\n", "trace payload -1"},
		{"ragged record", "time_sec,rate_per_s,payload_bytes\n0,1\n60,2,480\n", "record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTraceCSV([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("error does not wrap ErrInvalidScenario: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the defect (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestConstantRateTraceCoalesces pins the bit-identity contract: a trace
// whose rates are all bitwise equal compiles to the constant schedule —
// scale exactly 1, no change points — indistinguishable from the uniform
// scenario.
func TestConstantRateTraceCoalesces(t *testing.T) {
	prof := compileTemporal(t, Temporal{Kind: Trace, Rows: []TraceRow{
		{AtSec: 0, RatePerSec: 2.5}, {AtSec: 600, RatePerSec: 2.5}, {AtSec: 1200, RatePerSec: 2.5},
	}})
	uniform := compileTemporal(t, Temporal{})
	for _, at := range []float64{0, 1, 599.5, 600, 1200, 1e6} {
		gv, gd := prof.Rates(0, at)
		wv, wd := uniform.Rates(0, at)
		if gv != wv || gd != wd {
			t.Errorf("at %v: trace rates (%v, %v) differ from uniform (%v, %v)", at, gv, gd, wv, wd)
		}
		if next := prof.NextChange(at); !math.IsInf(next, 1) {
			t.Errorf("constant-rate trace should have no change points, NextChange(%v) = %v", at, next)
		}
	}
}

// TestTraceNormalizationAndPeriodicity checks the trace preset end to end:
// time-weighted mean scale 1 over one period, and the periodic schedule
// wrapping its change points past the period boundary.
func TestTraceNormalizationAndPeriodicity(t *testing.T) {
	spec, err := Preset(Trace)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := spec.Compile(cluster.NewHexCluster(), 0.475, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for at := 0.0; at < 1800; at += 300 {
		v, _ := prof.Rates(0, at)
		integral += v / 0.475 * 300
	}
	if mean := integral / 1800; math.Abs(mean-1) > 1e-12 {
		t.Errorf("preset trace mean scale %v over one period, want 1", mean)
	}
	if next := prof.NextChange(1700); next != 1800 {
		t.Errorf("NextChange(1700) = %v, want the period boundary 1800", next)
	}
	v1, _ := prof.Rates(0, 150)
	v2, _ := prof.Rates(0, 1800+150)
	if v1 != v2 {
		t.Errorf("periodic replay differs across periods: %v vs %v", v1, v2)
	}
}

// TestCompileRejectsUnloadedCSV pins the load discipline: a spec that still
// references a CSV file must not silently compile as constant.
func TestCompileRejectsUnloadedCSV(t *testing.T) {
	_, err := Spec{Temporal: Temporal{Kind: Trace, CSV: "trace.csv"}}.
		Compile(cluster.NewHexCluster(), 0.475, 0.025)
	if err == nil || !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("unloaded CSV should fail compilation, got %v", err)
	}
	if !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("error %q should point at the missing load step", err)
	}
}

// TestLoadResolvesTraceCSV checks the file plumbing: a scenario document
// referencing a CSV by relative path loads rows resolved against the
// document's own directory.
func TestLoadResolvesTraceCSV(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "load.csv"),
		[]byte("time_sec,rate_per_s\n0,1\n300,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(doc,
		[]byte(`{"name": "replay", "spatial": {"kind": "uniform"}, "temporal": {"kind": "trace", "csv": "load.csv"}}`),
		0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Temporal.Rows) != 2 || s.Temporal.Rows[1].RatePerSec != 2 {
		t.Fatalf("rows not loaded: %+v", s.Temporal.Rows)
	}
	if _, err := s.Compile(cluster.NewHexCluster(), 0.475, 0.025); err != nil {
		t.Fatalf("loaded spec should compile: %v", err)
	}
	// A missing CSV must be attributed to both files.
	bad := filepath.Join(dir, "missing.json")
	if err := os.WriteFile(bad,
		[]byte(`{"temporal": {"kind": "trace", "csv": "nope.csv"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "missing.json") {
		t.Errorf("missing CSV error should name the scenario file, got %v", err)
	}
}

// TestMMPPDeterministicAndStationary checks the MMPP modulator: identical
// specs compile to identical trajectories, distinct seeds to distinct ones,
// every scale is one of the process's discrete levels, and the stationary
// mean over the horizon is near 1.
func TestMMPPDeterministicAndStationary(t *testing.T) {
	tp := Temporal{Kind: MMPP, Sources: 8, MeanOnSec: 120, MeanOffSec: 240, HorizonSec: 30000, Seed: 17}
	a := compileTemporal(t, tp)
	b := compileTemporal(t, tp)
	tp2 := tp
	tp2.Seed = 18
	c := compileTemporal(t, tp2)
	sawDiff := false
	var integral float64
	levels := map[float64]bool{}
	for at := 0.0; at < 30000; {
		av, _ := a.Rates(0, at)
		bv, _ := b.Rates(0, at)
		cv, _ := c.Rates(0, at)
		if av != bv {
			t.Fatalf("same spec, different trajectories at %v: %v vs %v", at, av, bv)
		}
		if av != cv {
			sawDiff = true
		}
		next := math.Min(a.NextChange(at), 30000)
		integral += av / 0.475 * (next - at)
		levels[av/0.475] = true
		at = next
	}
	if !sawDiff {
		t.Error("distinct seeds should modulate differently")
	}
	// Scales live on the lattice k/(M*pOn), k = 0..M, with pOn = 1/3.
	for lv := range levels {
		k := lv * 8.0 / 3.0
		if math.Abs(k-math.Round(k)) > 1e-9 || k < -1e-9 || k > 8+1e-9 {
			t.Errorf("scale %v is not a valid MMPP level", lv)
		}
	}
	if len(levels) < 3 {
		t.Errorf("only %d distinct levels over the horizon; the modulator looks stuck", len(levels))
	}
	if mean := integral / 30000; math.Abs(mean-1) > 0.25 {
		t.Errorf("stationary mean scale %v strays far from 1", mean)
	}
}

// TestOnOffAlternatesHeavyTailed checks the self-similar on/off modulator:
// scales alternate between 0 and (on+off)/on, deterministically in the seed.
func TestOnOffAlternatesHeavyTailed(t *testing.T) {
	tp := Temporal{Kind: OnOff, MeanOnSec: 100, MeanOffSec: 200, ParetoAlpha: 1.4, HorizonSec: 20000, Seed: 5}
	a := compileTemporal(t, tp)
	b := compileTemporal(t, tp)
	scaleOn := 3.0
	var prev float64 = -1
	changes := 0
	for at := 0.0; at < 20000; {
		av, _ := a.Rates(0, at)
		bv, _ := b.Rates(0, at)
		if av != bv {
			t.Fatalf("same spec, different trajectories at %v", at)
		}
		s := av / 0.475
		if s != 0 && math.Abs(s-scaleOn) > 1e-12 {
			t.Fatalf("scale %v at %v; want 0 or %v", s, at, scaleOn)
		}
		if prev >= 0 && s == prev {
			t.Fatalf("consecutive sojourns with the same scale %v at %v", s, at)
		}
		prev = s
		changes++
		at = a.NextChange(at)
	}
	if changes < 10 {
		t.Errorf("only %d sojourns over the horizon; heavy tails should still alternate more", changes)
	}
}

// TestMobilityRejectsGeneratedTemporals pins the restriction: dwell-time
// shaping accepts only the hand-auditable constant/steps profiles.
func TestMobilityRejectsGeneratedTemporals(t *testing.T) {
	for _, kind := range []string{Trace, MMPP, OnOff} {
		m := Mobility{Temporal: Temporal{Kind: kind}}
		if err := m.validate(); err == nil || !strings.Contains(err.Error(), "must be constant or steps") {
			t.Errorf("mobility with %s temporal should be rejected, got %v", kind, err)
		}
	}
}
