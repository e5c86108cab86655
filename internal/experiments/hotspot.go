package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// cellPanel is one figure of the hotspot row: a per-cell simulator measure
// by distance from the scenario's center. get reads the measure from one
// cell's report of a run that measured for sec simulated seconds.
type cellPanel struct {
	id, title, ylabel string
	get               func(m sim.CellMeasures, sec float64) float64
}

// hotspotFigures sweeps the call arrival rate under a heterogeneous-load
// scenario and reports the spatial response of the cluster: one figure per
// panel, the per-cell values grouped by hex distance from the scenario's
// center cell (cells at equal distance are statistically identical under a
// radial scenario and are averaged; corridor scenarios group by distance
// from the corridor axis instead), one series per arrival rate. This is the
// first workload the analytical model cannot express — the simulator series
// are the reference, so no model curves appear. Options.Setup.Scenario selects the scenario (default: the built-in
// hotspot preset) and Options.Setup.Cells the cluster (default: the 19-cell
// hex ring, the smallest cluster with three distinct distance groups).
func hotspotFigures(o Options, panels []cellPanel) ([]Figure, error) {
	if o.Setup.Cells == 0 {
		o.Setup.Cells = 19
	}
	spec := o.Setup.Scenario
	if spec == nil {
		s, err := scenario.Preset(scenario.Hotspot)
		if err != nil {
			return nil, err
		}
		spec = &s
	}
	o.Setup.Scenario = spec

	topo, err := cluster.Preset(o.Setup.Cells)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	// Validate up front so a malformed spec (an out-of-range corridor axis,
	// say) is named precisely instead of surfacing as a nil distance vector
	// misdiagnosed below as a center/cluster mismatch.
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	center := spec.Spatial.Center
	// Cells are grouped by the distance the scenario's shape is a function
	// of: perpendicular distance from the corridor axis for corridor shapes
	// (where cells at equal radial distance are not statistically identical),
	// radial hex distance from the center otherwise.
	xlabel := fmt.Sprintf("hex distance from scenario center (cell %d)", center)
	dist := topo.Distances(center)
	if spec.Spatial.Kind == scenario.Corridor {
		xlabel = fmt.Sprintf("hex distance from the corridor axis (axis %d through cell %d)", spec.Spatial.Axis, center)
		dist = topo.AxisDistances(center, spec.Spatial.Axis)
	}
	if dist == nil {
		return nil, fmt.Errorf("%w: scenario center %d outside the %d-cell cluster", ErrInvalidOptions, center, o.Setup.Cells)
	}
	var groups [][]int // cell ids by hex distance
	for cell, d := range dist {
		for len(groups) <= d {
			groups = append(groups, nil)
		}
		groups[d] = append(groups[d], cell)
	}
	distances := make([]float64, len(groups))
	for d := range distances {
		distances[d] = float64(d)
	}

	rates := callRates(o.Fidelity)
	name := spec.Name
	if name == "" {
		name = "scenario"
	}
	sums, err := simulateSweep(o, "hotspot sweep ("+name+")", traffic.Model3, rates, nil)
	if err != nil {
		return nil, err
	}

	figs := make([]Figure, 0, len(panels))
	for _, p := range panels {
		fig := Figure{
			ID:     p.id,
			Title:  fmt.Sprintf("%s under the %q scenario (%d cells)", p.title, name, o.Setup.Cells),
			XLabel: xlabel,
			YLabel: p.ylabel,
		}
		for ri, rate := range rates {
			fig.Series = append(fig.Series, distanceSeries(fmt.Sprintf("rate %.2g /s", rate), distances, groups, sums[ri],
				func(m sim.CellMeasures) float64 { return p.get(m, o.SimMeasurementSec) }))
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// distanceSeries reduces one sweep point's per-cell report to a curve over
// hex distance: within each replication the cells of one distance group are
// averaged, and the cross-replication mean and confidence half-width of that
// group average form the point. The group averages pass through the
// summary's variance-reduction treatment (runner.Summary.EffectiveSamples),
// so antithetic pairs and control-variate adjustment shrink these error bars
// exactly like the mid-cell ones. With a single replication the half-width
// is +Inf, mirroring runner.Merge.
func distanceSeries(label string, distances []float64, groups [][]int,
	sum runner.Summary, get func(sim.CellMeasures) float64) Series {
	s := newSeries(label, distances)
	s.YErr = make([]float64, len(distances))
	// The simulator configurations of this package always run at the default
	// 0.95 confidence level; keep the error bars consistent with
	// seriesFromSummaries.
	const level = 0.95
	for d := range distances {
		cells := groups[d]
		samples := sum.EffectiveSamples(func(rep sim.Results) float64 {
			if len(rep.PerCell) == 0 {
				return 0
			}
			var groupMean float64
			for _, cell := range cells {
				groupMean += get(rep.PerCell[cell])
			}
			return groupMean / float64(len(cells))
		})
		iv := runner.SampleInterval(samples, level, sum.VR)
		s.Y[d] = iv.Mean
		s.YErr[d] = iv.HalfWidth
	}
	return s
}
