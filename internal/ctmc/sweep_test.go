package ctmc_test

import (
	"fmt"
	"math"
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
// every line that reads it must see it scaled in both orders.
func TestFourWidePassMatchesOneLineAtATime(t *testing.T) {
	model, cfg, lines := quickFig6Model(t, 0.10, 1.0)
	n, k := cfg.NumStates(), cfg.BufferSize
	// The solve scales every line to its product-form mass, so the line
	// sums of its solution are those masses.
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	productForm := make([]float64, n/(k+1))
	for i, p := range res.Pi {
		productForm[i/(k+1)] += p
	}
	const dense = 70
	for _, tc := range []struct {
		name     string
		n, width int
		line     ctmc.LineFunc
		mass     []float64
	}{
		{"Quick Fig. 6 with buffer lines", n, k + 1, lines, nil},
		{"Quick Fig. 6 with buffer lines and product-form masses", n, k + 1, lines, productForm},
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
			res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			mass := make([]float64, n/w)
			for i, p := range res.Pi {
				mass[i/w] += p
			}
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
