package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// ErrSimulationOnly is returned by Figures for a figure that plots only
// simulator series when Options.WithSimulation is false.
var ErrSimulationOnly = errors.New("experiments: figure plots only simulator series")

// figureRow is one figure name of Figures: the model sweeps it plots or, for
// the simulation-only hotspot row, its per-cell panels.
type figureRow struct {
	name    string
	sweeps  []sweep
	perCell []cellPanel
}

// sweep is one grid of a figure row: every curve at every call arrival rate
// of one traffic model. Each grid point is solved once and plotted in every
// panel.
type sweep struct {
	model  traffic.Model
	curves []curve
	// quick, when non-nil, replaces curves below Full fidelity.
	quick  []curve
	panels []panel
	// overlays are the simulator series of the validation figures, one per
	// overlay, appended to every panel after the model curves.
	overlays []overlay
}

// curve is one model series: its label and its change to the base
// configuration.
type curve struct {
	label string
	set   func(*core.Config)
}

// panel is one plotted figure of a sweep.
type panel struct {
	id, title string
	y         measure
}

// measure is a plotted quantity: its axis label, its value in the model's
// measures and, for the simulator overlays, its interval in sim.Results.
type measure struct {
	label string
	model func(core.Measures) float64
	sim   sim.Measure
}

// overlay is one simulator series: its label, the suffix its progress events
// add to the first panel's ID, and its change to the simulator
// configuration.
type overlay struct {
	label, tag string
	set        func(*sim.Config)
}

// The plotted measures of Figs. 5-15.
var (
	cdt          = measure{"carried data traffic (PDCHs)", func(m core.Measures) float64 { return m.CarriedDataTraffic }, sim.MeasureCDT}
	atu          = measure{"throughput per user (bit/s)", func(m core.Measures) float64 { return m.ThroughputPerUserBits }, sim.MeasureATU}
	plp          = measure{"packet loss probability", func(m core.Measures) float64 { return m.PacketLossProbability }, sim.MeasurePLP}
	qd           = measure{"queueing delay (s)", func(m core.Measures) float64 { return m.QueueingDelay }, sim.MeasureQD}
	ags          = measure{"average number of active GPRS sessions", func(m core.Measures) float64 { return m.AverageSessions }, sim.MeasureAGS}
	cvt          = measure{"carried voice traffic (channels)", func(m core.Measures) float64 { return m.CarriedVoiceTraffic }, sim.MeasureCVT}
	gsmBlocking  = measure{"GSM voice blocking probability", func(m core.Measures) float64 { return m.GSMBlockingProbability }, sim.MeasureGSMBlocking}
	gprsBlocking = measure{"GPRS session blocking probability", func(m core.Measures) float64 { return m.GPRSBlockingProbability }, sim.MeasureGPRSBlocking}
)

// figureTable declares every figure of the evaluation (Figs. 5-15, in the
// paper's order) and the per-cell hotspot set. The model curves use traffic
// model 3 and the base reserved-PDCH setting unless a row says otherwise;
// Fig. 10's session limits scale to 10/20/30 in quick mode like the cell.
var figureTable = []figureRow{
	{name: "fig5", sweeps: []sweep{{
		model:    traffic.Model3,
		curves:   curves("eta = %.1f", func(c *core.Config, eta float64) { c.FlowControlThreshold = eta }, 0.5, 0.7, 0.9, 1.0),
		panels:   []panel{{"fig05_plp_vs_eta", "Calibrating the threshold eta to represent TCP flow control (traffic model 3)", plp}},
		overlays: []overlay{{label: "simulation (TCP)"}},
	}}},
	{name: "fig6", sweeps: []sweep{{
		model:  traffic.Model3,
		curves: curves("model, %d%% GPRS users", setGPRSPercent, 2, 5, 10),
		panels: []panel{
			{"fig06_cdt_validation", "Validation of the Markov model: carried data traffic (traffic model 3, 1 PDCH)", cdt},
			{"fig06_atu_validation", "Validation of the Markov model: throughput per user (traffic model 3, 1 PDCH)", atu},
		},
		overlays: gprsOverlays(2, 5, 10),
	}}},
	{name: "fig7", sweeps: perTrafficModel("fig07_cdt_tm%d", "Carried data traffic, %v", cdt)},
	{name: "fig8", sweeps: perTrafficModel("fig08_plp_tm%d", "Packet loss probability, %v", plp)},
	{name: "fig9", sweeps: perTrafficModel("fig09_qd_tm%d", "Queueing delay, %v", qd)},
	{name: "fig10", sweeps: []sweep{{
		model:  traffic.Model1,
		curves: curves("M = %d", setSessionLimitAt2PDCH, 50, 100, 150),
		quick:  curves("M = %d", setSessionLimitAt2PDCH, 10, 20, 30),
		panels: []panel{
			{"fig10_cdt_session_limit", "Carried data traffic for different session limits M (traffic model 1, 2 PDCHs)", cdt},
			{"fig10_blocking_session_limit", "GPRS session blocking probability for different session limits M (traffic model 1)", gprsBlocking},
		},
	}}},
	{name: "fig11", sweeps: pdchsAtGPRSPercent(2)},
	{name: "fig12", sweeps: pdchsAtGPRSPercent(5)},
	{name: "fig13", sweeps: pdchsAtGPRSPercent(10)},
	{name: "fig14", sweeps: []sweep{{
		model:  traffic.Model3,
		curves: curves("%d reserved PDCH", setReservedPDCH, 0, 1, 2, 4),
		panels: []panel{
			{"fig14_cvt", "Influence of GPRS on the GSM voice service: carried voice traffic (95% GSM calls)", cvt},
			{"fig14_voice_blocking", "Influence of GPRS on the GSM voice service: voice blocking probability (95% GSM calls)", gsmBlocking},
		},
	}}},
	{name: "fig15", sweeps: []sweep{{
		model:  traffic.Model3,
		curves: curves("%d%% GPRS users", setGPRSPercent, 2, 5, 10),
		panels: []panel{
			{"fig15_avg_gprs_users", "Average number of GPRS users in the cell (traffic model 3)", ags},
			{"fig15_gprs_blocking", "GPRS session blocking probability (traffic model 3)", gprsBlocking},
		},
	}}},
	{name: "hotspot", perCell: []cellPanel{
		{"hsp01_cdt_percell", "carried data traffic per cell", "carried data traffic (PDCHs)",
			func(m sim.CellMeasures, _ float64) float64 { return m.CarriedDataTraffic }},
		{"hsp02_cvt_percell", "carried voice traffic per cell", "carried voice traffic (channels)",
			func(m sim.CellMeasures, _ float64) float64 { return m.CarriedVoiceTraffic }},
		{"hsp03_gsmblock_percell", "GSM blocking per cell", "GSM blocking probability",
			func(m sim.CellMeasures, _ float64) float64 { return m.GSMBlocking }},
		{"hsp04_ags_percell", "active GPRS sessions per cell", "active GPRS sessions",
			func(m sim.CellMeasures, _ float64) float64 { return m.AverageSessions }},
		// The mobility figure: outbound handover intensity per cell. Under a
		// pure rate scenario this follows the carried load; under a mobility
		// profile (highway, hotspot-pedestrian) the dwell-time multipliers
		// skew it independently of the load — the spatial signature the
		// paper's single dwell time cannot produce.
		{"hsp05_hoflow_percell", "outbound handover flow per cell", "outbound handovers (1/s)",
			func(m sim.CellMeasures, sec float64) float64 { return float64(m.HandoversOut) / sec }},
		// The admission-policy figure: how often the configured policy steps
		// in, per cell — fresh calls turned away by a guard reservation,
		// handovers parked in the queue, and directed-retry forwards. Under
		// the paper's default policy the curve is identically zero; under the
		// policy presets (hotspot-guard, hotspot-hoqueue, highway-retry) it
		// shows where in the cluster the admission rule actually bites.
		{"hsp06_policy_percell", "handover-policy interventions per cell", "policy interventions (1/s)",
			func(m sim.CellMeasures, sec float64) float64 {
				return float64(m.GuardBlockedCalls+m.HandoversQueued+m.HandoverRetries) / sec
			}},
	}},
}

// curves builds one curve per grid value: the label formats the value and
// set applies it.
func curves[T any](format string, set func(*core.Config, T), values ...T) (cs []curve) {
	for _, v := range values {
		cs = append(cs, curve{fmt.Sprintf(format, v), func(c *core.Config) { set(c, v) }})
	}
	return cs
}

func setGPRSPercent(c *core.Config, pct int) { c.GPRSFraction = float64(pct) / 100 }
func setReservedPDCH(c *core.Config, n int)  { c.Channels.ReservedPDCH = n }
func setSessionLimitAt2PDCH(c *core.Config, m int) {
	c.Channels.ReservedPDCH, c.MaxSessions = 2, m
}

// gprsOverlays are Fig. 6's simulator series, one per percentage of GPRS
// users.
func gprsOverlays(pcts ...int) (ovs []overlay) {
	for _, pct := range pcts {
		ovs = append(ovs, overlay{fmt.Sprintf("simulation, %d%% GPRS users", pct), fmt.Sprintf(" (%d%% GPRS)", pct),
			func(c *sim.Config) { c.GPRSFraction = float64(pct) / 100 }})
	}
	return ovs
}

// perTrafficModel is the template of Figs. 7-9: one panel per traffic model
// 1 and 2, one curve per reserved-PDCH setting.
func perTrafficModel(id, title string, y measure) (ss []sweep) {
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		ss = append(ss, sweep{
			model:  model,
			curves: curves("%d reserved PDCH", setReservedPDCH, 1, 2, 4),
			panels: []panel{{fmt.Sprintf(id, model), fmt.Sprintf(title, model), y}},
		})
	}
	return ss
}

// pdchsAtGPRSPercent is the template of Figs. 11-13: carried data traffic
// and throughput per user for 0, 1, 2 and 4 reserved PDCHs at one
// percentage of GPRS users (traffic model 3).
func pdchsAtGPRSPercent(pct int) []sweep {
	return []sweep{{
		model: traffic.Model3,
		curves: curves("%d reserved PDCH", func(c *core.Config, n int) {
			setGPRSPercent(c, pct)
			setReservedPDCH(c, n)
		}, 0, 1, 2, 4),
		panels: []panel{
			{fmt.Sprintf("fig_cdt_%02dpct", pct), fmt.Sprintf("Carried data traffic for %d%% GPRS users (traffic model 3)", pct), cdt},
			{fmt.Sprintf("fig_atu_%02dpct", pct), fmt.Sprintf("Throughput per user for %d%% GPRS users (traffic model 3)", pct), atu},
		},
	}}
}

// FigureNames lists the figure names Figures accepts besides "all", in
// table order.
func FigureNames() (names []string) {
	for _, row := range figureTable {
		names = append(names, row.name)
	}
	return names
}

// Figures regenerates the named figure row of the evaluation section:
// "fig5" ... "fig15", the per-cell "hotspot" set, or "all" for Figs. 5-15.
// The rows of "all" run concurrently — on top of the point- and
// replication-level parallelism inside each — while the shared limiter keeps
// the number of active model solutions and simulator runs at the configured
// worker bound. The figures come back in the paper's order and the reported
// error is that of the earliest failing row, so neither depends on the
// schedule.
func Figures(name string, o Options) ([]Figure, error) {
	o = o.withDefaults()
	if name == "all" {
		return allFigures(o)
	}
	for _, row := range figureTable {
		if row.name == name {
			return row.run(o)
		}
	}
	return nil, fmt.Errorf("%w: unknown figure %q (known: all, %s)", ErrInvalidOptions, name, strings.Join(FigureNames(), ", "))
}

// Fig6Validation reproduces Fig. 6 (the model against the simulator): the
// CDT panel, then the ATU panel, each with the model series of 2, 5 and 10%
// GPRS users followed by the simulation series of the same fractions.
func Fig6Validation(o Options) ([]Figure, error) { return Figures("fig6", o) }

// allFigures runs every model row of the table concurrently and emits one
// "group" progress event per finished row.
func allFigures(o Options) ([]Figure, error) {
	var rows []figureRow
	for _, row := range figureTable {
		if row.perCell == nil {
			rows = append(rows, row)
		}
	}
	perRow := make([][]Figure, len(rows))
	done := 0
	err := runner.ForEach(nil, len(rows), func(i int) error {
		// Groups keep the paper's spelling ("fig 5") in errors and progress.
		group := "fig " + strings.TrimPrefix(rows[i].name, "fig")
		got, err := rows[i].run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", group, err)
		}
		perRow[i] = got
		o.emit(&done, ProgressEvent{Kind: "group", Figure: group, Total: len(rows)})
		return nil
	})
	var figs []Figure
	for _, got := range perRow {
		figs = append(figs, got...)
	}
	return figs, err
}

// run regenerates one row's figures.
func (row figureRow) run(o Options) ([]Figure, error) {
	if row.perCell != nil {
		if !o.WithSimulation {
			return nil, fmt.Errorf("%w: %q", ErrSimulationOnly, row.name)
		}
		return hotspotFigures(o, row.perCell)
	}
	rates := callRates(o.Fidelity)
	// job is one model solution: its configuration and the series slot of
	// every panel it fills.
	type job struct {
		cfg           core.Config
		sw            *sweep
		fig, cur, pos int
	}
	var figs []Figure
	var jobs []job
	for si := range row.sweeps {
		sw := &row.sweeps[si]
		first := len(figs)
		for _, p := range sw.panels {
			figs = append(figs, Figure{ID: p.id, Title: p.title, XLabel: rateAxis, YLabel: p.y.label})
		}
		cs := sw.curves
		if sw.quick != nil && o.Fidelity != Full {
			cs = sw.quick
		}
		for ci, c := range cs {
			for fi := range sw.panels {
				figs[first+fi].Series = append(figs[first+fi].Series, newSeries(c.label, rates))
			}
			for ri, rate := range rates {
				cfg := baseConfig(o.Fidelity, sw.model, rate)
				c.set(&cfg)
				jobs = append(jobs, job{cfg, sw, first, ci, ri})
			}
		}
	}
	// Each job writes its own (series, point) slot of every panel, so the
	// filled series do not depend on the schedule.
	err := runner.ForEach(o.limiter, len(jobs), func(k int) error {
		j := jobs[k]
		meas, err := solvePoint(j.cfg, o)
		if err != nil {
			return err
		}
		for fi, p := range j.sw.panels {
			figs[j.fig+fi].Series[j.cur].Y[j.pos] = p.y.model(meas)
		}
		return nil
	})
	if err != nil || !o.WithSimulation {
		return figs, err
	}
	first := 0
	for si := range row.sweeps {
		sw := &row.sweeps[si]
		if err := overlaySimulation(o, sw, figs[first:first+len(sw.panels)], rates); err != nil {
			return nil, err
		}
		first += len(sw.panels)
	}
	return figs, nil
}

// overlaySimulation appends the sweep's simulator series to its panels. The
// overlays run concurrently on top of the per-point and per-replication
// parallelism inside simulateSweep; the shared limiter keeps the number of
// active simulator runs bounded. Series are appended in overlay order
// afterwards, so the figure layout does not depend on completion order.
func overlaySimulation(o Options, sw *sweep, figs []Figure, rates []float64) error {
	sums := make([][]runner.Summary, len(sw.overlays))
	err := runner.ForEach(nil, len(sw.overlays), func(i int) error {
		var err error
		sums[i], err = simulateSweep(o, figs[0].ID+sw.overlays[i].tag, sw.model, rates, sw.overlays[i].set)
		return err
	})
	if err != nil {
		return err
	}
	for i, ov := range sw.overlays {
		for fi, p := range sw.panels {
			figs[fi].Series = append(figs[fi].Series, seriesFromSummaries(ov.label, rates, sums[i], p.y.sim))
		}
	}
	return nil
}
