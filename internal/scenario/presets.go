package scenario

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// busyHourSteps is a busy-hour ramp sized for the default measurement setup
// (2000 s warm-up + 20000 s measurement): the load climbs to twice the
// baseline mid-run and falls back off, all within the measured window.
func busyHourSteps() []Step {
	return []Step{
		{AtSec: 0, Scale: 1.0},
		{AtSec: 6000, Scale: 1.4},
		{AtSec: 10000, Scale: 2.0},
		{AtSec: 14000, Scale: 1.4},
		{AtSec: 18000, Scale: 1.0},
	}
}

// presets returns the built-in scenarios, keyed by name.
func presets() map[string]Spec {
	hotspot := Spatial{Kind: Hotspot, Center: cluster.MidCell, Peak: 4, Decay: 1.5}
	return map[string]Spec{
		// The paper's symmetric baseline: weight 1 and scale 1 everywhere,
		// bit-identical to running without a scenario.
		Uniform: {Name: Uniform, Spatial: Spatial{Kind: Uniform}},
		// A radial hotspot: the mid cell carries four times the baseline
		// load, decaying by e every 1.5 hex hops towards the cluster edge.
		Hotspot: {Name: Hotspot, Spatial: hotspot},
		// A linear gradient from half the baseline load at the mid cell to
		// one-and-a-half times at the cells farthest from it.
		Gradient: {Name: Gradient, Spatial: Spatial{Kind: Gradient, Center: cluster.MidCell, Low: 0.5, High: 1.5}},
		// A uniform cluster through a busy-hour ramp peaking at twice the
		// baseline load.
		"busyhour": {Name: "busyhour", Temporal: Temporal{Kind: Steps, Steps: busyHourSteps()}},
		// The hotspot shape riding the busy-hour ramp: spatial and temporal
		// generators compose multiplicatively.
		"hotspot-busyhour": {Name: "hotspot-busyhour", Spatial: hotspot,
			Temporal: Temporal{Kind: Steps, Steps: busyHourSteps()}},
		// A highway corridor along hex axis 0 through the mid cell: the
		// corridor cells carry three times the baseline load, and the fast
		// vehicles on it dwell only a quarter of the baseline time, so the
		// handover flow is strongly skewed along the axis.
		"highway": {Name: "highway",
			Spatial: Spatial{Kind: Corridor, Center: cluster.MidCell, Peak: 3, Decay: 1},
			Mobility: &Mobility{
				Spatial: Spatial{Kind: Corridor, Center: cluster.MidCell, Peak: 0.25, Decay: 1}}},
		// The radial hotspot populated by slow pedestrians: the center cell
		// carries four times the load but its users dwell three times longer,
		// so the heavier load hands over less often — the opposite skew of
		// the highway.
		"hotspot-pedestrian": {Name: "hotspot-pedestrian", Spatial: hotspot,
			Mobility: &Mobility{
				Spatial: Spatial{Kind: Hotspot, Center: cluster.MidCell, Peak: 3, Decay: 1.5}}},
		// The hotspot under a guard-channel policy: two voice channels are
		// reserved for handovers, trading fresh-call blocking in the hot
		// center for fewer dropped handovers.
		"hotspot-guard": {Name: "hotspot-guard", Spatial: hotspot,
			Policy: &PolicySpec{Kind: "guard", Guard: 2}},
		// The hotspot with queued handovers: a blocked voice handover waits
		// up to five seconds in a four-deep per-cell queue for a channel to
		// free instead of dropping immediately.
		"hotspot-hoqueue": {Name: "hotspot-hoqueue", Spatial: hotspot,
			Policy: &PolicySpec{Kind: "queue", QueueCapacity: 4, QueueDeadlineSec: 5}},
		// The highway corridor with directed retry: a handover refused by a
		// saturated corridor cell is forwarded once to the source's next
		// neighbour — off the corridor, where channels are free.
		"highway-retry": {Name: "highway-retry",
			Spatial: Spatial{Kind: Corridor, Center: cluster.MidCell, Peak: 3, Decay: 1},
			Mobility: &Mobility{
				Spatial: Spatial{Kind: Corridor, Center: cluster.MidCell, Peak: 0.25, Decay: 1}},
			Policy: &PolicySpec{Kind: "retry"}},
		// A measured-style diurnal trace replayed periodically: half-hour
		// cycles through a morning ramp, a peak, and a quiet tail, normalized
		// to the same aggregate load as the uniform scenario. The inline rows
		// stand in for a CSV export (see ParseTraceCSV); the fine 300 s
		// granularity makes even short runs cross several rate changes.
		Trace: {Name: Trace, Temporal: Temporal{Kind: Trace, PeriodSec: 1800,
			Rows: []TraceRow{
				{AtSec: 0, RatePerSec: 1.0},
				{AtSec: 300, RatePerSec: 1.8},
				{AtSec: 600, RatePerSec: 2.4},
				{AtSec: 900, RatePerSec: 1.6},
				{AtSec: 1200, RatePerSec: 0.8},
				{AtSec: 1500, RatePerSec: 0.5},
			}}},
		// Eight exponential on/off sources superposed into an MMPP: the
		// aggregate load bursts between silence (all sources off) and three
		// times the baseline, with stationary mean exactly the baseline. The
		// trajectory is pre-sampled from the spec seed, so every engine
		// layout replays the identical burst pattern.
		"mmpp-bursty": {Name: "mmpp-bursty", Temporal: Temporal{Kind: MMPP,
			Sources: 8, MeanOnSec: 120, MeanOffSec: 240, HorizonSec: 30000, Seed: 17}},
	}
}

// Names returns the built-in scenario names in sorted order.
func Names() []string {
	m := presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns the built-in scenario with the given name.
func Preset(name string) (Spec, error) {
	if s, ok := presets()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("%w: unknown preset %q (built in: %v)", ErrInvalidScenario, name, Names())
}
