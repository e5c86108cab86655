package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/traffic"
)

// gthSolve returns the stationary distribution of the irreducible chain of n
// states whose transitions line emits, one state per line, by the
// Grassmann–Taksar–Heyman elimination on the dense rate matrix. GTH forms
// every pivot as a sum of off-diagonal rates rather than from the diagonal,
// so it subtracts nothing and is accurate to a few ulps per state, in O(n³)
// time: it fits chains of up to ~1,500 states. It is a copy of the ctmc
// tests' reference solver, which a core test cannot import, and shares no
// code with the solver it checks.
func gthSolve(n int, line ctmc.LineFunc) []float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		line(i, func(to int, rate float64) {
			if to != i {
				a[i][to] += rate
			}
		})
	}
	for k := n - 1; k > 0; k-- {
		var out float64
		for j := range k {
			out += a[k][j]
		}
		for i := range k {
			a[i][k] /= out
		}
		for i := range k {
			if a[i][k] == 0 {
				continue
			}
			for j := range k {
				a[i][j] += a[i][k] * a[k][j]
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	sum := 1.0
	for k := 1; k < n; k++ {
		for i := range k {
			pi[k] += pi[i] * a[i][k]
		}
		sum += pi[k]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

// solveGTH returns the stationary distribution of the model and its measures
// by GTH on the reference encoding table1Points, without the product-form
// aggregation Solve installs, so the result does not presuppose the
// closed-form marginals.
func solveGTH(t *testing.T, model *Model) ([]float64, Measures) {
	t.Helper()
	pi := gthSolve(model.space.NumStates(), table1Points(model))
	meas, err := model.MeasuresFrom(pi)
	if err != nil {
		t.Fatal(err)
	}
	return pi, meas
}

// measuresDiff returns an error naming every measure of got that is
// further than rel relative from want's, or for a measure near 0, further
// than abs.
func measuresDiff(got, want Measures, rel, abs float64) error {
	var errs []error
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		a, b := g.Field(i).Float(), w.Field(i).Float()
		if !(math.Abs(a-b) <= max(rel*math.Abs(b), abs)) {
			errs = append(errs, fmt.Errorf("%s: %v, want %v (difference %.2g)", g.Type().Field(i).Name, a, b, math.Abs(a-b)))
		}
	}
	return errors.Join(errs...)
}

// maxGeneratedStates bounds the state space of a generated configuration,
// so that its GTH solve takes at most about 0.2 s.
const maxGeneratedStates = 1200

// drawConfig draws a small configuration: a traffic model, channels and
// reserved PDCHs, buffer and session limit of at most maxGeneratedStates
// states, GPRS fraction (0 or 1 one time in eight each), call rate, call
// duration and dwell times, flow-control threshold (1 one time in four) and
// handover tolerance. One time in 32, each field is set instead to a value
// that Validate must reject: out of range, NaN or infinite.
func drawConfig(rng *rand.Rand) Config {
	bad := func() bool { return rng.Intn(32) == 0 }
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	nan, inf := math.NaN(), math.Inf(1)
	cfg := BaseConfig(traffic.Model(1+rng.Intn(3)), math.Exp(6*rng.Float64()-4))
	for {
		cfg.Channels.TotalChannels = 1 + rng.Intn(8)
		cfg.Channels.ReservedPDCH = rng.Intn(cfg.Channels.TotalChannels + 1)
		cfg.BufferSize = 1 + rng.Intn(16)
		cfg.MaxSessions = 1 + rng.Intn(6)
		if cfg.NumStates() <= maxGeneratedStates {
			break
		}
	}
	cfg.GPRSFraction = rng.Float64()
	switch rng.Intn(8) {
	case 0:
		cfg.GPRSFraction = 0
	case 1:
		cfg.GPRSFraction = 1
	}
	cfg.GSMCallDurationSec = 20 + 300*rng.Float64()
	cfg.GSMDwellTimeSec = 10 + 300*rng.Float64()
	cfg.GPRSDwellTimeSec = 10 + 300*rng.Float64()
	cfg.FlowControlThreshold = 0.05 + 0.95*rng.Float64()
	if rng.Intn(4) == 0 {
		cfg.FlowControlThreshold = 1
	}
	cfg.HandoverTolerance = pick(0, 0, 1e-10, -1)

	if bad() {
		cfg.Channels.TotalChannels = rng.Intn(2) - 1
	}
	if bad() {
		cfg.Channels.ReservedPDCH = []int{-1, cfg.Channels.TotalChannels + 1}[rng.Intn(2)]
	}
	if bad() {
		cfg.BufferSize = rng.Intn(2) - 1
	}
	if bad() {
		cfg.MaxSessions = rng.Intn(2) - 1
	}
	if bad() {
		cfg.Session.ReadingTimeSec = pick(0, -1, nan, inf)
	}
	if bad() {
		cfg.TotalCallRate = pick(0, -1, nan, inf)
	}
	if bad() {
		cfg.GPRSFraction = pick(-0.25, 1.5, nan)
	}
	if bad() {
		cfg.GSMCallDurationSec = pick(0, -10, nan, inf)
	}
	if bad() {
		cfg.GSMDwellTimeSec = pick(0, -10, nan, inf)
	}
	if bad() {
		cfg.GPRSDwellTimeSec = pick(0, -10, nan, inf)
	}
	if bad() {
		cfg.FlowControlThreshold = pick(0, -0.5, 1.5, nan, inf)
	}
	if bad() {
		cfg.HandoverTolerance = pick(nan, inf, -inf)
	}
	return cfg
}

// TestGeneratedConfigsMatchGTH solves generated configurations (see
// drawConfig): 50 that Validate accepts in the full suite, 4 under -short.
// For each, Model.Solve at tolerance 1e-12 must converge, and every measure
// must lie within 1e-9 relative of GTH's on the reference encoding
// table1Points, or for a measure near 0 within the solve's tolerance. Every
// configuration that Validate rejects must fail, in Validate and in New,
// with an error wrapping ErrInvalidConfig.
func TestGeneratedConfigsMatchGTH(t *testing.T) {
	want := 50
	if testing.Short() {
		want = 4
	}
	rng := rand.New(rand.NewSource(1))
	valid, invalid := 0, 0
	for draw := 0; valid < want; draw++ {
		cfg := drawConfig(rng)
		if err := cfg.Validate(); err != nil {
			invalid++
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("draw %d: Validate: %v, want ErrInvalidConfig", draw, err)
			}
			if _, err := New(cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("draw %d: New: %v, want ErrInvalidConfig", draw, err)
			}
			continue
		}
		valid++
		model, err := New(cfg)
		if err != nil {
			t.Fatalf("draw %d: New: %v\n%+v", draw, err, cfg)
		}
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("draw %d: Solve: %v\n%+v", draw, err, cfg)
		}
		_, exact := solveGTH(t, model)
		if err := measuresDiff(res.Measures, exact, 1e-9, 1e-12); err != nil {
			t.Errorf("draw %d, %d states: %v\n%+v", draw, cfg.NumStates(), err, cfg)
		}
	}
	if invalid == 0 && !testing.Short() {
		t.Error("no generated configuration was invalid")
	}
	t.Logf("%d valid configurations, %d invalid", valid, invalid)
}
