package ctmc_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

// quickFig6Model returns the model of one Quick Fig. 6 point: traffic model
// 3 on a 10-channel cell with a 30-packet buffer and at most 10 sessions,
// and the description of its buffer lines, read back from its generator.
func quickFig6Model(t *testing.T, fraction, rate float64) (*core.Model, core.Config, ctmc.LineFunc) {
	t.Helper()
	cfg := core.BaseConfig(traffic.Model3, rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = min(cfg.MaxSessions, 10)
	cfg.GPRSFraction = fraction
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.BuildGenerator()
	if err != nil {
		t.Fatal(err)
	}
	return model, cfg, ctmc.Lines(g)
}

// lineMasses returns the product-form masses of the buffer lines of model:
// its solve scales every line to them, so they are the line sums of its
// solution.
func lineMasses(t *testing.T, model *core.Model, cfg core.Config, tol float64) ([]float64, *core.Result) {
	t.Helper()
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.BufferSize + 1
	mass := make([]float64, cfg.NumStates()/w)
	for i, p := range res.Pi {
		mass[i/w] += p
	}
	return mass, res
}

// denseChain returns a chain of n states in which every state moves to
// every other, so each state is its own line and, built with width 1, its
// line graph is complete and needs n colours.
func denseChain(n int) ctmc.LineFunc {
	return func(s int, _, _ []float64, jump func(int, float64)) {
		for to := range n {
			jump(to, 1+float64((s+2*to)%7))
		}
	}
}

func build(t *testing.T, n, width int, line ctmc.LineFunc) *ctmc.Generator {
	t.Helper()
	g, err := ctmc.NewGenerator(n, width, line)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSweepOrderIsAColouring checks the sweep order of the Quick Fig. 6
// generator, built with buffer lines and with one state per line, and of a
// dense chain whose 70 colours do not fit a 64-bit mask.
func TestSweepOrderIsAColouring(t *testing.T) {
	_, cfg, lines := quickFig6Model(t, 0.05, 0.6)
	n, k := cfg.NumStates(), cfg.BufferSize
	const dense = 70
	for _, tc := range []struct {
		name       string
		n, width   int
		line       ctmc.LineFunc
		minColours int
	}{
		{"Quick Fig. 6 with buffer lines", n, k + 1, lines, 2},
		{"Quick Fig. 6 with one state per line", n, 1, ctmc.Points(k+1, lines), 2},
		{"dense chain with one state per line", dense, 1, denseChain(dense), dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(t, tc.n, tc.width, tc.line)
			if err := ctmc.SweepOrderError(g, tc.line); err != nil {
				t.Fatal(err)
			}
			if c := ctmc.Colours(g); c < tc.minColours {
				t.Errorf("%d colours, want at least %d", c, tc.minColours)
			}
			t.Logf("%d lines in %d colours", tc.n/tc.width, ctmc.Colours(g))
		})
	}
}

// TestFourWidePassMatchesOneLineAtATime pins that the colour order and
// solving four lines of a colour together change no arithmetic: twenty
// sweeps give the same iterates, bit for bit, as a sweep that solves one
// line at a time in index order. The Quick Fig. 6 builds have 30 and 60
// colours of many lines each, so nearly every line goes through the
// four-wide pass; the dense chain has one line per colour, so every line
// goes through the one-line tail. With the model's product-form line
// masses, each line is scaled to its mass right after its Thomas pass, and
// every line that reads it must see it scaled in both orders. At GPRS
// fraction 1, 594 of the 660 lines have mass 0: the four-wide sweep leaves
// them out, and the reference must still solve them and reach the same
// zeros.
func TestFourWidePassMatchesOneLineAtATime(t *testing.T) {
	model, cfg, lines := quickFig6Model(t, 0.10, 1.0)
	n, k := cfg.NumStates(), cfg.BufferSize
	productForm, _ := lineMasses(t, model, cfg, 1e-6)
	dataModel, dataCfg, dataLines := quickFig6Model(t, 1, 1.0)
	dataMasses, _ := lineMasses(t, dataModel, dataCfg, 1e-6)
	const dense = 70
	for _, tc := range []struct {
		name     string
		n, width int
		line     ctmc.LineFunc
		mass     []float64
	}{
		{"Quick Fig. 6 with buffer lines", n, k + 1, lines, nil},
		{"Quick Fig. 6 with buffer lines and product-form masses", n, k + 1, lines, productForm},
		{"Quick Fig. 6 at GPRS fraction 1 with product-form masses", n, k + 1, dataLines, dataMasses},
		{"Quick Fig. 6 with one state per line", n, 1, ctmc.Points(k+1, lines), nil},
		{"dense chain with one state per line", dense, 1, denseChain(dense), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(t, tc.n, tc.width, tc.line)
			const sweeps = 20
			for _, omega := range []float64{1, 1.3} {
				four, _, err := ctmc.Iterates(g, sweeps, false, tc.mass, omega)
				if err != nil {
					t.Fatal(err)
				}
				one, _, err := ctmc.Iterates(g, sweeps, true, tc.mass, omega)
				if err != nil {
					t.Fatal(err)
				}
				for it := range sweeps {
					for i := range one[it] {
						if math.Float64bits(four[it][i]) != math.Float64bits(one[it][i]) {
							t.Fatalf("ω %v, sweep %d, pi[%d]: %v four lines at a time, %v one at a time",
								omega, it+1, i, four[it][i], one[it][i])
						}
					}
				}
			}
		})
	}
}

// TestZeroMassLinesAreFitted solves Quick Fig. 6 cells that carry only data
// (GPRS fraction 1, so every line with a GSM call has mass 0) or only voice
// (fraction 0, so every line with a GPRS session has mass 0). A line of mass
// 0 is zeroed as it is solved, so every sweep must scale every line to its
// mass, with no rescale over the whole vector after it, and the solve must
// reach the distribution of a solve without masses.
func TestZeroMassLinesAreFitted(t *testing.T) {
	for _, fraction := range []float64{0, 1} {
		t.Run(fmt.Sprintf("GPRS fraction %v", fraction), func(t *testing.T) {
			model, cfg, lines := quickFig6Model(t, fraction, 0.6)
			n, w := cfg.NumStates(), cfg.BufferSize+1
			mass, res := lineMasses(t, model, cfg, 1e-10)
			zero := 0
			for _, m := range mass {
				if m == 0 {
					zero++
				}
			}
			if zero == 0 {
				t.Fatal("no line has mass 0")
			}
			g := build(t, n, w, lines)
			_, stats, err := ctmc.Iterates(g, 20, false, mass, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stats {
				if !st.Fitted {
					t.Fatalf("sweep %d left a line unfitted (%d of %d lines have mass 0)", i+1, zero, len(mass))
				}
			}
			plain, err := g.SteadyState(ctmc.SolveOptions{Tolerance: 1e-12, MaxIterations: 1000000})
			if err != nil || !plain.Converged {
				t.Fatalf("solve without masses: %v, converged %v", err, plain != nil && plain.Converged)
			}
			for i := range plain.Pi {
				if math.Abs(res.Pi[i]-plain.Pi[i]) > 1e-8 {
					t.Fatalf("pi[%d] = %v, %v without masses", i, res.Pi[i], plain.Pi[i])
				}
			}
			t.Logf("%d of %d lines have mass 0; %d sweeps, %d without masses",
				zero, len(mass), res.Solver.Iterations, plain.Iterations)
		})
	}
}

// TestLinesShareRows checks the rate rows of the Quick Fig. 6 generator. A
// line's rates up and down its buffer depend only on its GSM calls and its
// sessions in the on state, so the 660 lines share 86 up rows and 10 down
// rows, and every line must read back, bit for bit, the rates that core's
// description of it writes: Table 1's offered packet rate one step up from
// each buffer level below K, and its service rate one step down from each
// level above 0. Built with one state per line, every row is 0, so the
// generator stores a single row.
func TestLinesShareRows(t *testing.T) {
	model, cfg, lines := quickFig6Model(t, 0.05, 0.6)
	n, w := cfg.NumStates(), cfg.BufferSize+1
	g, err := model.BuildGenerator()
	if err != nil {
		t.Fatal(err)
	}
	if rows, up, down := ctmc.Rows(g); rows != 96 || up != 86 || down != 10 {
		t.Errorf("%d rows, %d of them up rows and %d down rows; want 96, 86 and 10", rows, up, down)
	}
	space := core.NewStateSpace(cfg.Channels.GSMChannels(), cfg.BufferSize, cfg.MaxSessions)
	up, down := make([]float64, w), make([]float64, w)
	read := ctmc.Lines(g)
	for l := range n / w {
		clear(up)
		clear(down)
		read(l, up, down, func(int, float64) {})
		for k := range w {
			s := space.State(l*w + k)
			var wantUp, wantDown float64
			if k+1 < w {
				wantUp = model.OfferedPacketRate(s)
			}
			if k > 0 {
				wantDown = model.ServiceRate(s)
			}
			if math.Float64bits(up[k]) != math.Float64bits(wantUp) || math.Float64bits(down[k]) != math.Float64bits(wantDown) {
				t.Fatalf("line %d, level %d: up %v, down %v; core writes %v and %v", l, k, up[k], down[k], wantUp, wantDown)
			}
		}
	}
	if rows, _, _ := ctmc.Rows(build(t, n, 1, ctmc.Points(w, lines))); rows != 1 {
		t.Errorf("the build with one state per line stores %d rows, want 1", rows)
	}
}

// TestNewGeneratorBytesPerState bounds what a build of a Quick Fig. 6
// generator allocates per state: the lines' jumps, their rows and the sweep
// order come to about 11 B. A vector over the states, at 8 B a state, would
// break the bound. The least of three builds is taken, so that what the
// runtime allocates meanwhile does not count.
func TestNewGeneratorBytesPerState(t *testing.T) {
	model, cfg, _ := quickFig6Model(t, 0.05, 0.6)
	least := math.Inf(1)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		if _, err := model.BuildGenerator(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(cfg.NumStates()))
	}
	if least > 12 {
		t.Errorf("a build allocates %.2f B per state, want at most 12", least)
	}
	t.Logf("%.2f B per state", least)
}
