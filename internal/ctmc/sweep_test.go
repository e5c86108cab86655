package ctmc_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

// quickFig6Config returns the configuration of one Quick Fig. 6 point:
// traffic model 3 on a 10-channel cell with a 30-packet buffer and at most
// 10 sessions.
func quickFig6Config(fraction, rate float64) core.Config {
	cfg := core.BaseConfig(traffic.Model3, rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = min(cfg.MaxSessions, 10)
	cfg.GPRSFraction = fraction
	return cfg
}

// quickFig6Model returns the model of one Quick Fig. 6 point (see
// quickFig6Config) and the description of its buffer lines, read back from
// its generator.
func quickFig6Model(t testing.TB, fraction, rate float64) (*core.Model, core.Config, ctmc.Chain) {
	t.Helper()
	cfg := quickFig6Config(fraction, rate)
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

// denseChain returns a chain of n lines in which every line jumps to every
// other, so its line graph is complete and needs n colours. Each line of
// width w steps up and down at rates that vary with the line: line l names
// up row l mod 3 and down row 3 + l mod 4.
func denseChain(n, w int) ctmc.Chain {
	rows := make([]float64, 7*w)
	for q := 1; q < w; q++ {
		for l := range 3 {
			rows[l*w+q-1] = 1 + float64((l+q)%3)
		}
		for l := range 4 {
			rows[(3+l)*w+q] = 0.5 + float64((l*q)%4)
		}
	}
	return ctmc.Chain{States: n * w, Width: w, Rows: rows, Line: func(l int, jump func(int, float64)) (int, int) {
		for to := range n {
			jump(to, 1+float64((l+2*to)%7))
		}
		return l % 3, 3 + l%4
	}}
}

func build(t *testing.T, c ctmc.Chain) *ctmc.Generator {
	t.Helper()
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSecondReadingNearsBestFixedOmega solves Quick Fig. 6 point
// (0.05, 0.6) to 1e-12. The solve reads ω twice: from plain sweeps 4 and 5,
// and again three relaxed sweeps later. The second reading must lie within
// 0.05 of the fixed ω that takes the fewest sweeps on a grid of
// SolveRelaxed solves, 1.00 to 1.70 in steps of 0.02, and nearer to it than
// the first, which the plain rate, still climbing at sweep 5, puts 0.10
// below it.
func TestSecondReadingNearsBestFixedOmega(t *testing.T) {
	model, cfg, c := quickFig6Model(t, 0.05, 0.6)
	mass, _ := lineMasses(t, model, cfg, 1e-12)
	g := build(t, c)
	opts := ctmc.SolveOptions{Tolerance: 1e-12, Aggregation: &ctmc.Aggregation{Mass: mass}}
	sol, omegas, err := ctmc.SolveReadings(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(omegas) != 2 || !sol.Converged || sol.Relaxation != omegas[1] {
		t.Fatalf("read ω %v; converged %v at ω %v; want two readings, the second kept", omegas, sol.Converged, sol.Relaxation)
	}
	best, fewest := 0.0, math.MaxInt
	for i := range 36 {
		omega := 1 + 0.02*float64(i)
		fixed, err := ctmc.SolveRelaxed(g, opts, omega)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Iterations < fewest {
			best, fewest = omega, fixed.Iterations
		}
	}
	if d := math.Abs(omegas[1] - best); d > 0.05 || d >= math.Abs(omegas[0]-best) {
		t.Errorf("read ω %v; the best fixed ω on the grid is %.2f", omegas, best)
	}
	t.Logf("read ω %v, %d sweeps; best fixed ω %.2f, %d sweeps", omegas, sol.Iterations, best, fewest)
}

// TestSweepOrderIsAColouring checks the sweep order of the Quick Fig. 6
// generator, built with buffer lines and with one state per line, and of a
// dense chain whose 70 colours do not fit a 64-bit mask.
func TestSweepOrderIsAColouring(t *testing.T) {
	_, _, lines := quickFig6Model(t, 0.05, 0.6)
	const dense = 70
	for _, tc := range []struct {
		name       string
		chain      ctmc.Chain
		minColours int
	}{
		{"Quick Fig. 6 with buffer lines", lines, 2},
		{"Quick Fig. 6 with one state per line", ctmc.Points(lines), 2},
		{"dense chain with one state per line", denseChain(dense, 1), dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(t, tc.chain)
			if err := ctmc.SweepOrderError(g, tc.chain.Line); err != nil {
				t.Fatal(err)
			}
			if c := ctmc.Colours(g); c < tc.minColours {
				t.Errorf("%d colours, want at least %d", c, tc.minColours)
			}
			t.Logf("%d lines in %d colours", tc.chain.States/tc.chain.Width, ctmc.Colours(g))
		})
	}
}

// TestFourWidePassMatchesOneLineAtATime pins that the colour order, solving
// four lines of a colour together, and writing the Thomas pass into scratch
// so that the relaxed update writes each state once change no arithmetic:
// twenty sweeps give the same iterates, bit for bit, as a sweep that solves
// one line at a time in index order, writes the pass into the line and
// moves it by its own copy of the relaxed update (referenceFit). The Quick
// Fig. 6 builds, with the product-form line masses at GPRS fraction 0.05
// and 0.6 calls/s and at 0.10 and 1.0 calls/s, have 30 colours of many
// lines each, so nearly every line goes through the four-wide pass; the
// dense chain has one line per
// colour, so every line goes through the one-line tail. Each line is scaled
// to its mass right after its Thomas pass, and every line that reads it
// must see it scaled in both orders; after every sweep, every line must hold
// its mass to rounding. At GPRS fraction 1, 594 of the 660 lines have mass
// 0: the four-wide sweep leaves them out, and the reference must still
// solve them and reach the same zeros.
func TestFourWidePassMatchesOneLineAtATime(t *testing.T) {
	model, cfg, lines := quickFig6Model(t, 0.10, 1.0)
	productForm, _ := lineMasses(t, model, cfg, 1e-6)
	lowModel, lowCfg, lowLines := quickFig6Model(t, 0.05, 0.6)
	lowMasses, _ := lineMasses(t, lowModel, lowCfg, 1e-6)
	dataModel, dataCfg, dataLines := quickFig6Model(t, 1, 1.0)
	dataMasses, _ := lineMasses(t, dataModel, dataCfg, 1e-6)
	dense := denseChain(70, 3)
	for _, tc := range []struct {
		name  string
		chain ctmc.Chain
		mass  []float64
	}{
		{"Quick Fig. 6 with buffer lines", lowLines, lowMasses},
		{"Quick Fig. 6 with buffer lines and product-form masses", lines, productForm},
		{"Quick Fig. 6 at GPRS fraction 1 with product-form masses", dataLines, dataMasses},
		{"dense chain in lines of 3", dense, ctmc.GTHLineMasses(dense)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(t, tc.chain)
			w := tc.chain.Width
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
					for l, m := range tc.mass {
						var sum float64
						for _, x := range four[it][l*w:][:w] {
							sum += x
						}
						if math.Abs(sum-m) > 1e-13*m {
							t.Fatalf("ω %v, sweep %d: line %d holds %v, mass %v", omega, it+1, l, sum, m)
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
// mass, with no rescale over the whole vector after it. The solve to 1e-12
// must converge, which bounds pi*Q by 1e-12 times the largest outflow in
// every state (in a state of a line of mass 0, its inflow from the other
// lines), and leave every line at its mass, those of mass 0 at exactly 0.
func TestZeroMassLinesAreFitted(t *testing.T) {
	for _, fraction := range []float64{0, 1} {
		t.Run(fmt.Sprintf("GPRS fraction %v", fraction), func(t *testing.T) {
			model, cfg, lines := quickFig6Model(t, fraction, 0.6)
			w := cfg.BufferSize + 1
			mass, _ := lineMasses(t, model, cfg, 1e-10)
			zero := 0
			for _, m := range mass {
				if m == 0 {
					zero++
				}
			}
			if zero == 0 {
				t.Fatal("no line has mass 0")
			}
			g := build(t, lines)
			_, stats, err := ctmc.Iterates(g, 20, false, mass, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stats {
				if !st.Fitted {
					t.Fatalf("sweep %d left a line unfitted (%d of %d lines have mass 0)", i+1, zero, len(mass))
				}
			}
			sol, err := g.SteadyState(ctmc.SolveOptions{Tolerance: 1e-12, Aggregation: &ctmc.Aggregation{Mass: mass}})
			if err != nil || !sol.Converged {
				t.Fatalf("solve to 1e-12: %v, converged %v", err, sol != nil && sol.Converged)
			}
			got := make([]float64, len(mass))
			for i, p := range sol.Pi {
				got[i/w] += p
			}
			for l, m := range mass {
				if m == 0 && got[l] != 0 || math.Abs(got[l]-m) > 1e-15 {
					t.Fatalf("line %d holds %v, mass %v", l, got[l], m)
				}
			}
			t.Logf("%d of %d lines have mass 0; %d sweeps", zero, len(mass), sol.Iterations)
		})
	}
}

// TestLinesShareRows checks the rate rows of the Quick Fig. 6 generator. A
// line's rates up and down its buffer depend only on its GSM calls n and its
// sessions in the on state, so core declares one down row per n and one up
// row per n and number of on sessions: 10 × (1 + 11) = 120 rows for the 660
// lines, every one of them named by some line. Every line must read back,
// bit for bit, the rates that Table 1 gives its states: the offered packet
// rate one step up from each buffer level below K, and the service rate one
// step down from each level above 0. With n calls and k packets the service
// rate is min(N − n, 8k)·μ; the m − r sessions in the on state offer
// (m − r)·λ up to the flow-control threshold ηK and at most the service
// rate above it.
func TestLinesShareRows(t *testing.T) {
	model, cfg, lines := quickFig6Model(t, 0.05, 0.6)
	rates, limit := model.Rates(), cfg.FlowControlThreshold*float64(cfg.BufferSize)
	n, w := cfg.NumStates(), cfg.BufferSize+1
	g, err := model.BuildGenerator()
	if err != nil {
		t.Fatal(err)
	}
	if rows, up, down := ctmc.Rows(g); rows != 120 || up != 110 || down != 10 {
		t.Errorf("%d rows, %d of them up rows and %d down rows; want 120, 110 and 10", rows, up, down)
	}
	// Line l is block (n, m, r) in index order, n outermost (see
	// core.StateSpace).
	l := 0
	for calls := range cfg.Channels.GSMChannels() + 1 {
		for sessions := range cfg.MaxSessions + 1 {
			for off := range sessions + 1 {
				upRow, downRow := lines.Line(l, func(int, float64) {})
				up, down := lines.Rows[upRow*w:][:w], lines.Rows[downRow*w:][:w]
				for k := range w {
					service := float64(cfg.Channels.UsablePDCH(calls, k)) * rates.PacketServiceRate
					var wantUp, wantDown float64
					if on := sessions - off; k+1 < w && on > 0 {
						wantUp = float64(on) * rates.IPP.Lambda
						if float64(k) > limit && service < wantUp {
							wantUp = service
						}
					}
					if k > 0 {
						wantDown = service
					}
					if math.Float64bits(up[k]) != math.Float64bits(wantUp) || math.Float64bits(down[k]) != math.Float64bits(wantDown) {
						t.Fatalf("line %d, level %d: up %v, down %v; core writes %v and %v", l, k, up[k], down[k], wantUp, wantDown)
					}
				}
				l++
			}
		}
	}
	if l != n/w {
		t.Errorf("walked %d lines of %d", l, n/w)
	}
}

// TestBuildMatchesReferenceBuild checks NewGenerator against the earlier
// build kept as its reference (ctmc.ReferenceBuildMismatch), which visits
// every state for the largest outflow and a dead state and sorts the jumps
// by target in place, cycle by cycle. Every description that
// TestGeneratorRejectsInvalidInput and TestNewGeneratorRejectsBrokenLines
// give must fail with the same error kind and message. Every chain built
// must give the same jumps, inflow offsets, lines, sweep order, colour ends,
// transition count and largest outflow, rates bit for bit: the 12 Quick
// Fig. 6 points, dense chains, 2,000 random fuzz chains, with their lines
// and with one state per line, and, outside -short, a Table 2 traffic
// model 1 point. A model's description is read back from its generator
// (ctmc.Lines), so its lines emit their jumps in target order.
func TestBuildMatchesReferenceBuild(t *testing.T) {
	check := func(t *testing.T, name string, c ctmc.Chain) {
		t.Helper()
		if err := ctmc.ReferenceBuildMismatch(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	t.Run("rejected descriptions", func(t *testing.T) {
		for _, c := range ctmc.RejectedChains() {
			check(t, c.Name, c.Chain)
		}
	})
	t.Run("Quick Fig. 6", func(t *testing.T) {
		for _, fraction := range []float64{0.02, 0.05, 0.10} {
			for _, rate := range []float64{0.1, 0.3, 0.6, 1.0} {
				_, _, c := quickFig6Model(t, fraction, rate)
				check(t, fmt.Sprintf("fraction %v, rate %v", fraction, rate), c)
			}
		}
	})
	t.Run("dense chains", func(t *testing.T) {
		for _, w := range []int{1, 3} {
			check(t, fmt.Sprintf("width %d", w), denseChain(70, w))
		}
	})
	t.Run("fuzz chains", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(1, 2))
		for i := range 2000 {
			data := make([]byte, rng.IntN(160))
			for k := range data {
				data[k] = byte(rng.Uint32())
			}
			c := ctmc.DecodeFuzzChain(data)
			check(t, fmt.Sprintf("chain %d", i), c)
			check(t, fmt.Sprintf("chain %d, one state per line", i), ctmc.Points(c))
		}
	})
	t.Run("Table 2 traffic model 1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a 2,678,520-state generator three times")
		}
		model, err := core.New(core.BaseConfig(traffic.Model1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		g, err := model.BuildGenerator()
		if err != nil {
			t.Fatal(err)
		}
		check(t, "base point at 0.5 calls/s", ctmc.Lines(g))
	})
}

// TestNewGeneratorBytesPerState bounds what a build of a Quick Fig. 6
// generator allocates per state: the declared rows, the lines, their jumps,
// each stored once at its place, and the sweep order come to about 6.2 B. A
// vector over the states, at 8 B a state, or a second copy of the jumps,
// at 3.5 B, would break the bound. The least of three builds is taken, so
// that what the runtime allocates meanwhile does not count.
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
	if least > 7 {
		t.Errorf("a build allocates %.2f B per state, want at most 7", least)
	}
	t.Logf("%.2f B per state", least)
}

// BenchmarkLineInflow gathers the inflow of every line of the Quick Fig. 6
// point at GPRS fraction 0.05 and 0.6 calls/s, under its solution, with the
// AVX2 kernel and with the Go loop, and reports the time per source state:
// over the sum across lines of each line's sources times its width. The
// kernel's sub-benchmark skips on a CPU without AVX2.
func BenchmarkLineInflow(b *testing.B) {
	model, cfg, _ := quickFig6Model(b, 0.05, 0.6)
	g, err := model.BuildGenerator()
	if err != nil {
		b.Fatal(err)
	}
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	w := cfg.BufferSize + 1
	x := make([]float64, w)
	for _, path := range []struct {
		name   string
		goLoop bool
	}{{"kernel", false}, {"go-loop", true}} {
		b.Run(path.name, func(b *testing.B) {
			switch {
			case path.goLoop:
				ctmc.UseGoLoop(b)
			case !ctmc.InflowKernel():
				b.Skip("this CPU has no AVX2, so inflow has no kernel")
			}
			b.ResetTimer()
			for range b.N {
				for l := range len(res.Pi) / w {
					ctmc.LineInflow(g, res.Pi, l, x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ctmc.SourceStates(g)), "ns/source-state")
		})
	}
}
