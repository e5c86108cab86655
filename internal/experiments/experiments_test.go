package experiments

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// testOptions returns the cheapest possible options: quick fidelity, loose
// tolerance, no simulator series.
func testOptions() Options {
	return Options{
		Fidelity:       Quick,
		Tolerance:      1e-5,
		WithSimulation: false,
	}
}

func checkFigure(t *testing.T, fig Figure, wantSeries int) {
	t.Helper()
	if fig.ID == "" || fig.Title == "" || fig.XLabel == "" || fig.YLabel == "" {
		t.Errorf("figure %q has empty metadata", fig.ID)
	}
	if len(fig.Series) != wantSeries {
		t.Fatalf("figure %s has %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("figure %s series %q has inconsistent lengths", fig.ID, s.Label)
		}
		for i, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
				t.Errorf("figure %s series %q point %d = %v", fig.ID, s.Label, i, y)
			}
		}
	}
}

func TestFidelityAndOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Fidelity != Quick || o.Workers <= 0 || o.Tolerance <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.Sim.Replications != 3 || o.limiter == nil {
		t.Errorf("replication defaults not applied: %+v", o)
	}
	if full := (Options{Fidelity: Full}).withDefaults(); full.Sim.Replications != 5 {
		t.Errorf("full fidelity should default to 5 replications, got %d", full.Sim.Replications)
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("fidelity names wrong")
	}
	if Fidelity(9).String() == "" {
		t.Error("unknown fidelity should render")
	}
	if len(callRates(Full)) <= len(callRates(Quick)) {
		t.Error("full fidelity should sweep more rate points")
	}
}

func TestBaseConfigScaling(t *testing.T) {
	full := baseConfig(Full, traffic.Model1, 0.5)
	quick := baseConfig(Quick, traffic.Model1, 0.5)
	if full.Channels.TotalChannels != 20 || full.BufferSize != 100 || full.MaxSessions != 50 {
		t.Errorf("full config should match Table 2/3: %+v", full)
	}
	if quick.NumStates() >= full.NumStates()/50 {
		t.Errorf("quick config should shrink the state space dramatically: %d vs %d",
			quick.NumStates(), full.NumStates())
	}
	if err := quick.Validate(); err != nil {
		t.Errorf("quick config invalid: %v", err)
	}
}

func TestFig5ThresholdCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweep too slow for -short mode")
	}
	figs, err := Figures("fig5", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 {
		t.Fatalf("want 1 figure, got %d", len(figs))
	}
	fig := figs[0]
	checkFigure(t, fig, 4)
	// No flow control (eta = 1.0) must not lose fewer packets than eta = 0.5
	// at the highest load point.
	var lowEta, noFC Series
	for _, s := range fig.Series {
		switch s.Label {
		case "eta = 0.5":
			lowEta = s
		case "eta = 1.0":
			noFC = s
		}
	}
	last := len(noFC.Y) - 1
	if noFC.Y[last] < lowEta.Y[last]-1e-9 {
		t.Errorf("PLP without flow control (%v) should be at least PLP with eta=0.5 (%v)",
			noFC.Y[last], lowEta.Y[last])
	}
}

func TestFig6ValidationWithSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed validation skipped in -short mode")
	}
	o := testOptions()
	o.WithSimulation = true
	o.SimMeasurementSec = 1500
	figs, err := Fig6Validation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("Fig6Validation returned %d figures, want 2", len(figs))
	}
	// 3 model series + 3 simulation series each.
	checkFigure(t, figs[0], 6)
	checkFigure(t, figs[1], 6)

	// The simulation and the model should agree on the ordering of carried
	// data traffic across GPRS fractions at the lowest load point: more GPRS
	// users carry more data traffic.
	cdt := figs[0]
	bySeries := make(map[string][]float64)
	for _, s := range cdt.Series {
		bySeries[s.Label] = s.Y
	}
	if bySeries["model, 10% GPRS users"][0] <= bySeries["model, 2% GPRS users"][0] {
		t.Error("model: 10% GPRS users should carry more data traffic than 2% at low load")
	}
	if bySeries["simulation, 10% GPRS users"][0] <= bySeries["simulation, 2% GPRS users"][0] {
		t.Error("simulation: 10% GPRS users should carry more data traffic than 2% at low load")
	}
}

func TestFig7CDTShape(t *testing.T) {
	figs, err := Figures("fig7", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("want one figure per traffic model, got %d", len(figs))
	}
	for _, fig := range figs {
		checkFigure(t, fig, 3)
		// The paper's observation: for traffic models 1 and 2 the carried
		// data traffic barely depends on the number of reserved PDCHs.
		for i := range fig.Series[0].X {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, s := range fig.Series {
				lo = math.Min(lo, s.Y[i])
				hi = math.Max(hi, s.Y[i])
			}
			if hi-lo > 0.35*math.Max(hi, 0.1) {
				t.Errorf("%s: CDT spread across PDCH settings too large at point %d: [%v, %v]",
					fig.ID, i, lo, hi)
			}
		}
	}
}

func TestFig8And9MorePDCHsHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweeps too slow for -short mode")
	}
	o := testOptions()
	plpFigs, err := Figures("fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	qdFigs, err := Figures("fig9", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, figs := range [][]Figure{plpFigs, qdFigs} {
		for _, fig := range figs {
			checkFigure(t, fig, 3)
			series := make(map[string][]float64)
			for _, s := range fig.Series {
				series[s.Label] = s.Y
			}
			one, four := series["1 reserved PDCH"], series["4 reserved PDCH"]
			last := len(one) - 1
			if four[last] > one[last]+1e-9 {
				t.Errorf("%s: 4 PDCHs should not be worse than 1 PDCH at the highest load (%v vs %v)",
					fig.ID, four[last], one[last])
			}
		}
	}
}

func TestFig10SessionLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweeps too slow for -short mode")
	}
	figs, err := Figures("fig10", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("want 2 figures, got %d", len(figs))
	}
	checkFigure(t, figs[0], 3)
	checkFigure(t, figs[1], 3)
	// A larger session limit admits more sessions, so its blocking
	// probability is lower (Fig. 10 of the paper).
	blocking := figs[1]
	series := make(map[string][]float64)
	for _, s := range blocking.Series {
		series[s.Label] = s.Y
	}
	small, large := series["M = 10"], series["M = 30"]
	last := len(small) - 1
	if large[last] > small[last]+1e-12 {
		t.Errorf("blocking with M=30 (%v) should not exceed blocking with M=10 (%v)",
			large[last], small[last])
	}
}

func TestFigCDTandATUAcrossFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweeps too slow for -short mode")
	}
	o := testOptions()
	figs11, err := Figures("fig11", o)
	if err != nil {
		t.Fatal(err)
	}
	figs13, err := Figures("fig13", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, figs := range [][]Figure{figs11, figs13} {
		if len(figs) != 2 {
			t.Fatalf("want CDT and ATU figures, got %d", len(figs))
		}
		checkFigure(t, figs[0], 4)
		checkFigure(t, figs[1], 4)
	}
	// The paper's headline comparison: with 4 reserved PDCHs the throughput
	// per user degrades much less at high load than with 0 reserved PDCHs.
	atu := figs13[1]
	series := make(map[string][]float64)
	for _, s := range atu.Series {
		series[s.Label] = s.Y
	}
	zero, four := series["0 reserved PDCH"], series["4 reserved PDCH"]
	last := len(zero) - 1
	if four[last] <= zero[last] {
		t.Errorf("ATU with 4 PDCHs (%v) should exceed ATU with 0 PDCHs (%v) at the highest load",
			four[last], zero[last])
	}
}

func TestFig14VoiceImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweeps too slow for -short mode")
	}
	figs, err := Figures("fig14", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("want 2 figures, got %d", len(figs))
	}
	checkFigure(t, figs[0], 4)
	checkFigure(t, figs[1], 4)
	// Reserving more PDCHs leaves fewer voice channels, so voice blocking is
	// higher with 4 reserved PDCHs than with 0.
	blocking := figs[1]
	series := make(map[string][]float64)
	for _, s := range blocking.Series {
		series[s.Label] = s.Y
	}
	zero, four := series["0 reserved PDCH"], series["4 reserved PDCH"]
	last := len(zero) - 1
	if four[last] < zero[last] {
		t.Errorf("voice blocking with 4 reserved PDCHs (%v) should be at least that with 0 (%v)",
			four[last], zero[last])
	}
}

func TestFig15GPRSPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweeps too slow for -short mode")
	}
	figs, err := Figures("fig15", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, figs[0], 3)
	checkFigure(t, figs[1], 3)
	// More GPRS users mean more active sessions.
	ags := figs[0]
	series := make(map[string][]float64)
	for _, s := range ags.Series {
		series[s.Label] = s.Y
	}
	last := len(series["2% GPRS users"]) - 1
	if series["10% GPRS users"][last] <= series["2% GPRS users"][last] {
		t.Error("10% GPRS users should yield more active sessions than 2%")
	}
}

func TestSimulateSweepReplicatedAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.Sim.Replications = 2
	o.SimMeasurementSec = 300
	rates := []float64{0.3, 0.6}

	var mu sync.Mutex
	var progress []ProgressEvent
	run := func(workers int, record bool) []Series {
		opts := o
		opts.Workers = workers
		if record {
			opts.Progress = func(ev ProgressEvent) {
				mu.Lock()
				defer mu.Unlock()
				progress = append(progress, ev)
			}
		}
		opts = opts.withDefaults()
		sums, err := simulateSweep(opts, "test", traffic.Model3, rates, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		series := []Series{
			seriesFromSummaries("plp", rates, sums, sim.MeasurePLP),
			seriesFromSummaries("cdt", rates, sums, sim.MeasureCDT),
		}
		if got := sums[0].Merged.CarriedDataTraffic.Batches; got != 2 {
			t.Fatalf("interval should span the 2 replications, got %d", got)
		}
		return series
	}

	one := run(1, true)
	for _, workers := range []int{4, 8} {
		if got := run(workers, false); !reflect.DeepEqual(got, one) {
			t.Errorf("workers=%d produced different series than workers=1:\n%+v\nvs\n%+v",
				workers, got, one)
		}
	}
	if len(progress) != len(rates) {
		t.Errorf("expected one progress event per point, got %v", progress)
	}
}

// TestSimulateSweepAdaptivePrecision exercises the precision-targeted path
// through the sweep harness: a loose target on a stable measure converges
// below the replication cap (the CPU-saving claim), the realized counts are
// deterministic for a fixed worker bound (batch boundaries are quantized to
// the pool, so the bound is part of the reproducibility key), and the
// clamped bounds reproduce the fixed-R sweep bit for bit.
func TestSimulateSweepAdaptivePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.SimMeasurementSec = 300
	o.Sim.Precision = 0.05
	o.Sim.Target = sim.MeasureCVT
	o.Sim.MinReplications = 4
	o.Sim.MaxReplications = 12
	rates := []float64{0.3, 0.6}

	run := func(workers int) []runner.Summary {
		opts := o
		opts.Workers = workers
		opts = opts.withDefaults()
		sums, err := simulateSweep(opts, "adaptive", traffic.Model3, rates, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sums
	}

	one := run(1)
	for i, sum := range one {
		if !sum.Adaptive {
			t.Fatalf("point %d: sweep did not run adaptively", i)
		}
		if !sum.Converged || sum.Replications >= o.Sim.MaxReplications {
			t.Errorf("point %d: %d replications (converged=%v, rel hw %v) — expected convergence below the cap of %d",
				i, sum.Replications, sum.Converged, sum.RelativeHalfWidth, o.Sim.MaxReplications)
		}
	}
	if again := run(1); !reflect.DeepEqual(again, one) {
		t.Error("adaptive sweep is not deterministic for a fixed worker bound")
	}
	// A wider pool may move the batch boundaries (pool-sized growth), but
	// every realized replication is the same seeded run: points that
	// converged within the shared first batch must match bit for bit, and
	// every point must still converge at or below the cap.
	four := run(4)
	for i, sum := range four {
		if !sum.Converged || sum.Replications > o.Sim.MaxReplications {
			t.Errorf("point %d (workers=4): %d replications (converged=%v)", i, sum.Replications, sum.Converged)
		}
		if one[i].Replications == o.Sim.MinReplications && !reflect.DeepEqual(four[i], one[i]) {
			t.Errorf("point %d: first-batch convergence must not depend on the pool width", i)
		}
	}

	// Clamped bounds == fixed-R: the stopping rule disabled by construction.
	clamped := o
	clamped.Sim.MinReplications = 2
	clamped.Sim.MaxReplications = 2
	clamped = clamped.withDefaults()
	fixed := o
	fixed.Sim.Precision = 0
	fixed.Sim.Replications = 2
	fixed = fixed.withDefaults()
	cs, err := simulateSweep(clamped, "clamped", traffic.Model3, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := simulateSweep(fixed, "fixed", traffic.Model3, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if !reflect.DeepEqual(cs[i].Merged, fx[i].Merged) {
			t.Errorf("point %d: clamped adaptive merge differs from fixed-R merge", i)
		}
	}
}

func TestSolveCacheDeduplicatesOverlappingSweeps(t *testing.T) {
	o := testOptions().withDefaults()
	// Fig. 15 plots one (fraction, rate) grid in two panels: each point is
	// requested once and fills both panels, so the grid makes only misses.
	figs, err := Figures("fig15", o)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, figs[0], 3)
	checkFigure(t, figs[1], 3)
	hits, misses := o.cache.stats()
	grid := int64(3 * len(callRates(o.Fidelity)))
	if misses != grid || hits != 0 {
		t.Errorf("cache misses/hits = %d/%d, want %d/0", misses, hits, grid)
	}
	// Fig. 6 sweeps the same fractions over the same rates at the same
	// reserved-PDCH setting, so a shared Options value re-solves nothing.
	if _, err := Fig6Validation(o); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := o.cache.stats()
	if misses2 != misses || hits2 != hits+grid {
		t.Errorf("figure 6 made %d misses and %d hits, want 0 and %d", misses2-misses, hits2-hits, grid)
	}
}

func TestSolveCacheSingleFlight(t *testing.T) {
	c := newSolveCache()
	var computed int64
	var wg sync.WaitGroup
	key := solveKey{tolerance: 1e-6}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.solve(key, func() (core.Measures, error) {
				atomic.AddInt64(&computed, 1)
				return core.Measures{}, nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if computed != 1 {
		t.Errorf("concurrent identical requests computed %d times, want 1", computed)
	}
	if hits, misses := c.stats(); hits != 15 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 15/1", hits, misses)
	}
}

func TestSimulateSweepRejectsUnsupportedCells(t *testing.T) {
	o := testOptions()
	o.Setup.Cells = 12
	o = o.withDefaults()
	if _, err := simulateSweep(o, "test", traffic.Model3, []float64{0.1}, nil); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("unsupported cluster size should fail with ErrInvalidOptions, got %v", err)
	}
}

func TestSimulateSweepLargeClusterSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	o := testOptions()
	o.Setup.Cells = 19
	o.Sim.Shards = 2
	o.Sim.Replications = 2
	o.SimMeasurementSec = 300
	o = o.withDefaults()
	sums, err := simulateSweep(o, "test", traffic.Model3, []float64{0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Replications != 2 {
		t.Fatalf("unexpected summaries: %+v", sums)
	}
	if sums[0].Merged.Events == 0 || sums[0].Merged.PacketsDelivered == 0 {
		t.Error("19-cell sharded sweep simulated no traffic")
	}
}

func TestTables(t *testing.T) {
	t2 := TableBaseParameters()
	if t2.ID != "table2" || len(t2.Rows) < 8 {
		t.Errorf("table 2 incomplete: %+v", t2)
	}
	if !strings.Contains(t2.String(), "13.4 kbit/s") {
		t.Error("table 2 should report the CS-2 rate")
	}
	t3 := TableTrafficModels()
	if t3.ID != "table3" || len(t3.Columns) != 3 {
		t.Errorf("table 3 incomplete: %+v", t3)
	}
	rendered := t3.String()
	// The "8 kbit/s" and "32 kbit/s" labels of the paper correspond to the
	// exact 480-byte-packet rates 7.7 and 30.7 kbit/s.
	for _, want := range []string{"2122.5 s", "312.5 s", "7.7 kbit/s", "30.7 kbit/s"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table 3 should contain %q:\n%s", want, rendered)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	fig := Figure{
		ID:     "test_fig",
		Title:  "test",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "a series", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Label: "sim", X: []float64{1, 2}, Y: []float64{5, 6}, YErr: []float64{0.1, 0.2}},
		},
	}
	path, err := WriteCSV(fig, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content := string(data)
	if !strings.Contains(content, "a_series") || !strings.Contains(content, "sim_ci_halfwidth") {
		t.Errorf("unexpected CSV header: %s", content)
	}
	lines := strings.Split(strings.TrimSpace(content), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV should have header + 2 rows, got %d lines", len(lines))
	}
	paths, err := WriteAllCSV([]Figure{fig}, filepath.Join(dir, "all"))
	if err != nil || len(paths) != 1 {
		t.Errorf("WriteAllCSV: %v, %v", paths, err)
	}
	if FormatFigure(fig) == "" {
		t.Error("FormatFigure should render")
	}
}
