package scenario

import (
	"math"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func topo19(t *testing.T) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Preset(19)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestUniformIsExactlyBaseline pins the bit-exactness contract: the uniform
// scenario must return the baseline rates unchanged (weight and scale exactly
// 1), so a uniform run reproduces the profile-less simulator bit for bit.
func TestUniformIsExactlyBaseline(t *testing.T) {
	spec, err := Preset(Uniform)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Compile(topo19(t), 0.475, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < p.NumCells(); cell++ {
		for _, at := range []float64{0, 123.456, 1e6} {
			v, d := p.Rates(cell, at)
			if v != 0.475 || d != 0.025 {
				t.Fatalf("cell %d at %v: rates (%v, %v), want baseline exactly", cell, at, v, d)
			}
		}
	}
	if !math.IsInf(p.NextChange(0), 1) {
		t.Error("uniform scenario should never change rates")
	}
}

// TestHotspotDecaysWithHexDistance checks the radial shape: the center cell
// carries the peak weight and weights fall off monotonically in hex distance.
func TestHotspotDecaysWithHexDistance(t *testing.T) {
	topo := topo19(t)
	spec := Spec{Spatial: Spatial{Kind: Hotspot, Center: 0, Peak: 4, Decay: 1.5}}
	p, err := spec.Compile(topo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Weights()
	if w[0] != 4 {
		t.Errorf("center weight %v, want the peak 4", w[0])
	}
	dist := topo.Distances(0)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[0] {
			t.Errorf("cell %d (distance %d) weight %v not below the peak", i, dist[i], w[i])
		}
		for j := range w {
			if dist[j] > dist[i] && w[j] >= w[i] {
				t.Errorf("weight must decay with distance: cell %d (d=%d, w=%v) vs cell %d (d=%d, w=%v)",
					i, dist[i], w[i], j, dist[j], w[j])
			}
		}
		if w[i] < 1 {
			t.Errorf("hotspot weights stay above the baseline, got %v", w[i])
		}
	}
}

// TestGradientInterpolatesByDistance checks the linear shape between the
// center cell and the cells at the cluster's eccentricity.
func TestGradientInterpolatesByDistance(t *testing.T) {
	topo := topo19(t)
	spec := Spec{Spatial: Spatial{Kind: Gradient, Center: 0, Low: 0.5, High: 1.5}}
	p, err := spec.Compile(topo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Weights()
	dist := topo.Distances(0)
	ecc := topo.Eccentricity(0)
	for i := range w {
		want := 0.5 + 1.0*float64(dist[i])/float64(ecc)
		if math.Abs(w[i]-want) > 1e-12 {
			t.Errorf("cell %d: weight %v, want %v", i, w[i], want)
		}
	}
}

// TestCorridorShapesAlongAxis checks the highway shape: cells on the lattice
// axis through the center carry the peak weight, weights decay with the
// perpendicular distance, and the shape needs a hex topology.
func TestCorridorShapesAlongAxis(t *testing.T) {
	topo := topo19(t)
	spec := Spec{Spatial: Spatial{Kind: Corridor, Center: 0, Peak: 3, Decay: 1, Axis: 0}}
	p, err := spec.Compile(topo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Weights()
	dist := topo.AxisDistances(0, 0)
	var onAxis int
	for i, d := range dist {
		want := 1 + 2*math.Exp(-float64(d))
		if math.Abs(w[i]-want) > 1e-12 {
			t.Errorf("cell %d (axis distance %d): weight %v, want %v", i, d, w[i], want)
		}
		if d == 0 {
			onAxis++
			if w[i] != 3 {
				t.Errorf("corridor cell %d weight %v, want the peak 3", i, w[i])
			}
		}
	}
	if onAxis != 5 {
		t.Errorf("19-cell ring should have 5 corridor cells on an axis, found %d", onAxis)
	}

	ring, err := cluster.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Compile(ring, 1, 1); err == nil {
		t.Error("corridor on a plain ring (no hex embedding) should be rejected")
	}
}

// TestMobilityCompilePositivity checks the mobility-specific compile rules:
// multipliers must be strictly positive everywhere, and valid shapes produce
// the weight-times-scale multiplier with correct change boundaries.
func TestMobilityCompilePositivity(t *testing.T) {
	topo := topo19(t)

	// A hotspot with peak 0 zeroes the center cell's dwell — rejected.
	zeroCenter := Mobility{Spatial: Spatial{Kind: Hotspot, Peak: 0, Decay: 100}}
	if _, err := zeroCenter.Compile(topo); err == nil {
		t.Error("near-zero dwell weight at the center should be rejected")
	}
	// A gradient reaching 0 at the center — rejected.
	zeroLow := Mobility{Spatial: Spatial{Kind: Gradient, Low: 0, High: 2}}
	if _, err := zeroLow.Compile(topo); err == nil {
		t.Error("zero dwell weight should be rejected")
	}
	if _, err := (Mobility{}).Compile(nil); err == nil {
		t.Error("nil topology should be rejected")
	}

	mob := Mobility{
		Spatial: Spatial{Kind: Hotspot, Peak: 3, Decay: 1.5},
		Temporal: Temporal{Kind: Steps, Steps: []Step{
			{AtSec: 0, Scale: 1}, {AtSec: 100, Scale: 0.5}}},
	}
	p, err := mob.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells() != 19 {
		t.Fatalf("compiled for %d cells", p.NumCells())
	}
	if got := p.Multiplier(0, 0); got != 3 {
		t.Errorf("center multiplier at t=0: %v, want 3", got)
	}
	if got := p.Multiplier(0, 100); got != 1.5 {
		t.Errorf("center multiplier at t=100: %v, want 3*0.5", got)
	}
	if got := p.NextChange(0); got != 100 {
		t.Errorf("NextChange(0) = %v, want 100", got)
	}
	if !math.IsInf(p.NextChange(100), 1) {
		t.Errorf("NextChange(100) = %v, want +Inf", p.NextChange(100))
	}
	if got := p.Multiplier(99, 0); got != 1 {
		t.Errorf("out-of-range cells must see the neutral multiplier, got %v", got)
	}
}

// TestNormalizePreservesAggregateLoad checks that a normalized shape keeps
// the cluster-aggregate load of the uniform scenario: the weights average 1.
func TestNormalizePreservesAggregateLoad(t *testing.T) {
	topo := topo19(t)
	for _, spec := range []Spec{
		{Spatial: Spatial{Kind: Hotspot, Center: 0, Peak: 6, Decay: 2, Normalize: true}},
		{Spatial: Spatial{Kind: Gradient, Center: 0, Low: 0.2, High: 3, Normalize: true}},
	} {
		p, err := spec.Compile(topo, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range p.Weights() {
			sum += v
		}
		if mean := sum / float64(p.NumCells()); math.Abs(mean-1) > 1e-12 {
			t.Errorf("%s: normalized weights average %v, want 1", spec.Spatial.Kind, mean)
		}
	}
}

// TestTemporalStepsAndNextChange checks the piecewise-constant schedule and
// its boundary iterator, non-periodic and periodic.
func TestTemporalStepsAndNextChange(t *testing.T) {
	topo := cluster.NewHexCluster()
	steps := []Step{{AtSec: 0, Scale: 1}, {AtSec: 100, Scale: 2}, {AtSec: 300, Scale: 0.5}}
	spec := Spec{Temporal: Temporal{Kind: Steps, Steps: steps}}
	p, err := spec.Compile(topo, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ at, scale, next float64 }{
		{0, 1, 100},
		{99.9, 1, 100},
		{100, 2, 300},
		{250, 2, 300},
		{300, 0.5, math.Inf(1)},
		{1e9, 0.5, math.Inf(1)},
	} {
		if v, _ := p.Rates(0, tc.at); v != tc.scale {
			t.Errorf("scale at %v: got %v, want %v", tc.at, v, tc.scale)
		}
		if next := p.NextChange(tc.at); next != tc.next {
			t.Errorf("NextChange(%v): got %v, want %v", tc.at, next, tc.next)
		}
	}

	periodic := Spec{Temporal: Temporal{Kind: Steps, Steps: steps[:2], PeriodSec: 200}}
	p2, err := periodic.Compile(topo, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ at, scale, next float64 }{
		{0, 1, 100},
		{100, 2, 200},
		{200, 1, 300},
		{350, 2, 400},
	} {
		if v, _ := p2.Rates(0, tc.at); v != tc.scale {
			t.Errorf("periodic scale at %v: got %v, want %v", tc.at, v, tc.scale)
		}
		if next := p2.NextChange(tc.at); next != tc.next {
			t.Errorf("periodic NextChange(%v): got %v, want %v", tc.at, next, tc.next)
		}
	}
}

// TestValidateRejectsMalformedSpecs sweeps the validation error paths.
func TestValidateRejectsMalformedSpecs(t *testing.T) {
	bad := []Spec{
		{Spatial: Spatial{Kind: "volcano"}},
		{Spatial: Spatial{Kind: Hotspot, Peak: 4}},                                       // missing decay
		{Spatial: Spatial{Kind: Hotspot, Peak: math.Inf(1), Decay: 1}},                   // non-finite peak
		{Spatial: Spatial{Kind: Gradient, Low: -1, High: 1}},                             // negative endpoint
		{Spatial: Spatial{Kind: Hotspot, Peak: 2, Decay: 1, Center: -3}},                 // negative center
		{Temporal: Temporal{Kind: "sine"}},                                               // unknown temporal kind
		{Temporal: Temporal{Kind: Steps}},                                                // no steps
		{Temporal: Temporal{Kind: Steps, Steps: []Step{{AtSec: 5, Scale: 1}}}},           // first step not at 0
		{Temporal: Temporal{Kind: Steps, Steps: []Step{{0, 1}, {10, 2}, {10, 3}}}},       // not increasing
		{Temporal: Temporal{Kind: Steps, Steps: []Step{{0, -1}}}},                        // negative scale
		{Temporal: Temporal{Kind: Steps, Steps: []Step{{0, 1}, {50, 2}}, PeriodSec: 40}}, // step beyond period
		{Temporal: Temporal{Kind: Constant, Steps: []Step{{0, 1}}}},                      // steps on constant
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d should be rejected: %+v", i, spec)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec (uniform constant) should validate, got %v", err)
	}
}

// TestCompileRejectsBadTargets checks the topology- and rate-dependent error
// paths that Validate cannot see.
func TestCompileRejectsBadTargets(t *testing.T) {
	topo := cluster.NewHexCluster()
	if _, err := (Spec{}).Compile(nil, 1, 1); err == nil {
		t.Error("nil topology should be rejected")
	}
	out := Spec{Spatial: Spatial{Kind: Hotspot, Center: 7, Peak: 2, Decay: 1}}
	if _, err := out.Compile(topo, 1, 1); err == nil {
		t.Error("center cell outside the cluster should be rejected")
	}
	if _, err := (Spec{}).Compile(topo, math.NaN(), 1); err == nil {
		t.Error("NaN baseline rate should be rejected")
	}
	allZero := Spec{Spatial: Spatial{Kind: Gradient, Low: 0, High: 0, Normalize: true}}
	if _, err := allZero.Compile(topo, 1, 1); err == nil {
		t.Error("normalizing all-zero weights should be rejected")
	}
}

// TestParseAndLoad round-trips the JSON format and rejects unknown fields.
func TestParseAndLoad(t *testing.T) {
	good := []byte(`{
		"name": "rush",
		"spatial": {"kind": "hotspot", "center": 0, "peak": 4, "decay": 1.5},
		"temporal": {"kind": "steps", "steps": [{"at_sec": 0, "scale": 1}, {"at_sec": 900, "scale": 2}]}
	}`)
	s, err := Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "rush" || s.Spatial.Peak != 4 || len(s.Temporal.Steps) != 2 {
		t.Errorf("parsed spec mismatch: %+v", s)
	}
	if _, err := Parse([]byte(`{"spatial": {"kind": "uniform", "sigma": 2}}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	if _, err := Parse([]byte(`{"spatial": {"kind": "hotspot"}}`)); err == nil {
		t.Error("invalid parsed specs should be rejected")
	}
	if _, err := Load(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing files should be reported")
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Errorf("loading a valid file failed: %v", err)
	}
}

// TestPresetsCompileEverywhere ensures every built-in scenario compiles on
// every preset cluster size.
func TestPresetsCompileEverywhere(t *testing.T) {
	for _, name := range Names() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range []int{7, 19, 37} {
			topo, err := cluster.Preset(cells)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spec.Compile(topo, 0.475, 0.025); err != nil {
				t.Errorf("preset %q on %d cells: %v", name, cells, err)
			}
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset should be rejected")
	}
}

// TestApplyInstallsProfile checks the sim.Config integration: Apply splits
// the configured aggregate rate via BaseRates and installs the profile.
func TestApplyInstallsProfile(t *testing.T) {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	spec, err := Preset(Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Apply(&cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rates == nil {
		t.Fatal("Apply should install cfg.Rates")
	}
	if p.NumCells() != 7 {
		t.Errorf("nil topology should compile against the seven-cell cluster, got %d cells", p.NumCells())
	}
	voice, data := cfg.BaseRates()
	v, d := p.Rates(0, 0)
	if v != voice*4 || d != data*4 {
		t.Errorf("center rates (%v, %v), want baseline * peak (%v, %v)", v, d, voice*4, data*4)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("configuration with scenario profile should validate: %v", err)
	}
	if cfg.Mobility != nil {
		t.Error("a spec without mobility must not install a mobility profile")
	}
}

// TestApplyInstallsMobility checks the dwell-profile side of Apply: mobility
// presets install cfg.Mobility alongside cfg.Rates, the result validates,
// and the compiled multipliers carry the declared skew.
func TestApplyInstallsMobility(t *testing.T) {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	spec, err := Preset("highway")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	if cfg.Mobility == nil {
		t.Fatal("highway preset should install a mobility profile")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("configuration with mobility profile should validate: %v", err)
	}
	dp, ok := cfg.Mobility.(*DwellProfile)
	if !ok {
		t.Fatalf("installed mobility profile has type %T", cfg.Mobility)
	}
	if got := dp.Multiplier(0, 0); got != 0.25 {
		t.Errorf("corridor dwell multiplier %v, want 0.25", got)
	}
	if dp.NumCells() != 7 {
		t.Errorf("nil topology should compile against the seven-cell cluster, got %d cells", dp.NumCells())
	}

	// Re-applying a mobility-less spec on the same Config must clear the
	// profile — a stale dwell skew leaking into the next scenario's runs
	// would silently misattribute results.
	plain, err := Preset(Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(&cfg, plain); err != nil {
		t.Fatal(err)
	}
	if cfg.Mobility != nil {
		t.Error("Apply must clear a previously installed mobility profile")
	}
}

// TestApplyInstallsPolicy checks the admission-policy side of Apply: policy
// presets install cfg.Policy alongside cfg.Rates, the result validates
// against the default channel plan, and re-applying a policy-less spec
// clears the installed policy again.
func TestApplyInstallsPolicy(t *testing.T) {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	spec, err := Preset("hotspot-guard")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == nil {
		t.Fatal("hotspot-guard preset should install a policy")
	}
	if cfg.Policy.Kind != policy.GuardChannels || cfg.Policy.Guard != 2 {
		t.Errorf("installed policy %+v, want guard channels with reservation 2", cfg.Policy)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("configuration with policy should validate: %v", err)
	}

	plain, err := Preset(Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(&cfg, plain); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != nil {
		t.Error("Apply must clear a previously installed policy")
	}
}

// TestPolicyPresetsCompile pins the policy parameterization of every policy
// preset: the spec validates, and the compiled policy matches the kind the
// preset name promises.
func TestPolicyPresetsCompile(t *testing.T) {
	wants := map[string]policy.Kind{
		"hotspot-guard":   policy.GuardChannels,
		"hotspot-hoqueue": policy.QueuedHandovers,
		"highway-retry":   policy.DirectedRetry,
	}
	for name, kind := range wants {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if spec.Policy == nil {
			t.Fatalf("%s: preset has no policy block", name)
		}
		pc, err := spec.Policy.compile()
		if err != nil {
			t.Fatal(err)
		}
		if pc.Kind != kind {
			t.Errorf("%s: policy kind %v, want %v", name, pc.Kind, kind)
		}
	}
}

// TestSetupApply pins the order Setup.Apply installs its parts in: the
// topology (0 cells is the paper's cluster), then the scenario with its own
// policy, then the policy override, whose None kind clears the scenario's.
func TestSetupApply(t *testing.T) {
	spec, err := Preset("hotspot-guard")
	if err != nil {
		t.Fatal(err)
	}
	queue := &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}
	for _, c := range []struct {
		setup      Setup
		wantCells  int
		wantPolicy policy.Kind // None: no policy installed
	}{
		{Setup{}, 7, policy.None},
		{Setup{Cells: 19, Scenario: &spec}, 19, policy.GuardChannels},
		{Setup{Scenario: &spec, Policy: queue}, 7, policy.QueuedHandovers},
		{Setup{Scenario: &spec, Policy: &policy.Config{}}, 7, policy.None},
	} {
		cfg := sim.DefaultConfig(traffic.Model3, 0.5)
		prof, err := c.setup.Apply(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Topology.NumCells(); got != c.wantCells {
			t.Errorf("%+v: %d cells, want %d", c.setup, got, c.wantCells)
		}
		if (prof == nil) != (c.setup.Scenario == nil) || (cfg.Rates == nil) != (prof == nil) {
			t.Errorf("%+v: profile %v, rates %v", c.setup, prof, cfg.Rates)
		}
		if (cfg.Policy == nil) != (c.wantPolicy == policy.None) || (cfg.Policy != nil && cfg.Policy.Kind != c.wantPolicy) {
			t.Errorf("%+v: policy %+v, want kind %v", c.setup, cfg.Policy, c.wantPolicy)
		}
	}
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	if _, err := (Setup{Cells: 8}).Apply(&cfg); err == nil {
		t.Error("an unsupported cluster size applied")
	}
}
