package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestHotspotFiguresShape runs the heterogeneous-load sweep on the seven-cell
// cluster at quick fidelity and checks the spatial response: the hotspot
// center must carry more voice traffic and block more GSM calls than the
// cells away from it.
func TestHotspotFiguresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.WithSimulation = true
	o.Setup.Cells = 7
	o.Sim.Replications = 2
	o.SimMeasurementSec = 600
	figs, err := Figures("hotspot", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("expected 6 hotspot figures, got %d", len(figs))
	}
	byID := map[string]Figure{}
	for _, fig := range figs {
		checkFigure(t, fig, len(callRates(Quick)))
		byID[fig.ID] = fig
		for _, s := range fig.Series {
			if len(s.X) != 2 { // seven-cell cluster: distances 0 and 1
				t.Errorf("%s %q: expected 2 distance groups, got %d", fig.ID, s.Label, len(s.X))
			}
			if s.YErr == nil {
				t.Errorf("%s %q: missing confidence half-widths", fig.ID, s.Label)
			}
		}
	}
	cvt := byID["hsp02_cvt_percell"]
	// At the highest arrival rate the overloaded center must stand out.
	last := cvt.Series[len(cvt.Series)-1]
	if !(last.Y[0] > last.Y[1]) {
		t.Errorf("hotspot center should carry more voice traffic than the ring: %v", last.Y)
	}
	block := byID["hsp03_gsmblock_percell"]
	lastB := block.Series[len(block.Series)-1]
	if !(lastB.Y[0] > lastB.Y[1]) {
		t.Errorf("hotspot center should block more GSM calls than the ring: %v", lastB.Y)
	}
	for _, y := range append(append([]float64{}, last.Y...), lastB.Y...) {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Errorf("non-finite figure value %v", y)
		}
	}
	// The plain hotspot preset declares no admission policy, so the policy
	// intervention figure must be identically zero — non-zero values here
	// would mean the default rule consults the policy counters.
	for _, s := range byID["hsp06_policy_percell"].Series {
		for i, y := range s.Y {
			if y != 0 {
				t.Errorf("hsp06 %q point %d = %v, want 0 under the default admission policy", s.Label, i, y)
			}
		}
	}
}

// TestHotspotFiguresHighwayGroupsByAxis checks the mobility figure under a
// corridor scenario: cells group by distance from the corridor axis (not by
// radial distance), and the corridor cells' outbound handover flow (hsp05)
// exceeds the off-corridor cells' — the dwell-time skew the figure exists to
// show.
func TestHotspotFiguresHighwayGroupsByAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.WithSimulation = true
	o.Setup.Cells = 7
	o.Sim.Replications = 2
	o.SimMeasurementSec = 600
	spec, err := scenario.Preset("highway")
	if err != nil {
		t.Fatal(err)
	}
	o.Setup.Scenario = &spec
	figs, err := Figures("hotspot", o)
	if err != nil {
		t.Fatal(err)
	}
	var flow Figure
	for _, fig := range figs {
		if fig.ID == "hsp05_hoflow_percell" {
			flow = fig
		}
	}
	if flow.ID == "" {
		t.Fatal("handover-flow figure missing")
	}
	if !strings.Contains(flow.XLabel, "corridor axis") {
		t.Errorf("corridor scenarios should group by axis distance, x label %q", flow.XLabel)
	}
	last := flow.Series[len(flow.Series)-1]
	if len(last.X) != 2 { // seven-cell cluster: axis distances 0 and 1
		t.Fatalf("expected 2 axis-distance groups, got %d", len(last.X))
	}
	if !(last.Y[0] > last.Y[1]) {
		t.Errorf("corridor cells should hand over more often than off-corridor cells: %v", last.Y)
	}
}

// TestHotspotFiguresHonorScenarioOption checks that an explicit scenario
// (here the gradient, centered on the mid cell) replaces the default hotspot
// preset.
func TestHotspotFiguresHonorScenarioOption(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.WithSimulation = true
	o.Setup.Cells = 7
	o.Sim.Replications = 1
	o.SimMeasurementSec = 300
	spec, err := scenario.Preset(scenario.Gradient)
	if err != nil {
		t.Fatal(err)
	}
	o.Setup.Scenario = &spec
	figs, err := Figures("hotspot", o)
	if err != nil {
		t.Fatal(err)
	}
	cvt := figs[1]
	last := cvt.Series[len(cvt.Series)-1]
	// The gradient preset underloads the center (weight 0.5) relative to the
	// edge (weight 1.5): the spatial response must flip.
	if !(last.Y[0] < last.Y[1]) {
		t.Errorf("gradient center should carry less voice traffic than the ring: %v", last.Y)
	}
}

// TestFiguresRejectsHotspotWithoutSimulation checks that the
// simulation-only hotspot row refuses to run without the simulator instead
// of running it anyway, and that an unknown figure name is an options error.
func TestFiguresRejectsHotspotWithoutSimulation(t *testing.T) {
	if _, err := Figures("hotspot", testOptions()); !errors.Is(err, ErrSimulationOnly) {
		t.Errorf("hotspot without simulation: error %v, want ErrSimulationOnly", err)
	}
	if _, err := Figures("fig16", testOptions()); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("unknown figure: error %v, want ErrInvalidOptions", err)
	}
}
