package ctmc

import (
	"fmt"
	"math"
	"slices"
)

// Colours returns the number of colours of the sweep order of g.
func Colours(g *Generator) int { return len(g.colourEnd) }

// SweepOrderError checks the sweep order of g, built from the line
// description line. The order must list every line exactly once, colour by
// colour and in index order within a colour, and no jump of line may join
// two lines of the same colour.
func SweepOrderError(g *Generator, line LineFunc) error {
	w, lines := g.width, g.n/g.width
	if len(g.order) != lines {
		return fmt.Errorf("sweep order lists %d lines, want %d", len(g.order), lines)
	}
	colour := make([]int, lines)
	for l := range colour {
		colour[l] = -1
	}
	var start int32
	for c, end := range g.colourEnd {
		if end <= start || int(end) > lines {
			return fmt.Errorf("colour %d spans order[%d:%d] of %d lines", c, start, end, lines)
		}
		for i, l := range g.order[start:end] {
			switch {
			case l < 0 || int(l) >= lines:
				return fmt.Errorf("colour %d lists line %d of %d", c, l, lines)
			case colour[l] >= 0:
				return fmt.Errorf("line %d listed in colours %d and %d", l, colour[l], c)
			case i > 0 && l < g.order[int(start)+i-1]:
				return fmt.Errorf("colour %d lists line %d after line %d", c, l, g.order[int(start)+i-1])
			}
			colour[l] = c
		}
		start = end
	}
	if int(start) != lines {
		return fmt.Errorf("the colours list %d of %d lines", start, lines)
	}
	up, down := make([]float64, w), make([]float64, w)
	var err error
	for l := 0; l < lines && err == nil; l++ {
		clear(up)
		clear(down)
		line(l, up, down, func(to int, rate float64) {
			if err == nil && rate > 0 && to != l && colour[to] == colour[l] {
				err = fmt.Errorf("line %d -> %d joins two lines of colour %d", l, to, colour[l])
			}
		})
	}
	return err
}

// Points returns the description, with one state per line, of the chain
// that line describes in lines of the given width: state l·width + q steps
// to its neighbours in line l at the rates line gives position q, and jumps
// to position q of the lines line jumps to. It calls line once per state
// into scratch of its own, so a build from it allocates nothing per state,
// and two builds must not share it at once.
func Points(width int, line LineFunc) LineFunc {
	up, down := make([]float64, width), make([]float64, width)
	var q int
	var emit func(int, float64)
	shift := func(to int, rate float64) { emit(to*width+q, rate) }
	return func(s int, _, _ []float64, jump func(int, float64)) {
		clear(up)
		clear(down)
		q, emit = s%width, jump
		line(s/width, up, down, shift)
		if up[q] != 0 {
			jump(s+1, up[q])
		}
		if down[q] != 0 {
			jump(s-1, down[q])
		}
	}
}

// Lines returns the line description of g, read back from its rates and
// jumps, so that a chain built with NewGenerator alone, such as a model's,
// can be rebuilt and checked. Each line emits its jumps in target order.
func Lines(g *Generator) LineFunc {
	jumps := make([][]jump, len(g.lines))
	for _, j := range g.from {
		jumps[j.from] = append(jumps[j.from], j)
	}
	return func(l int, up, down []float64, emit func(int, float64)) {
		u, d, _ := g.rates(l)
		copy(up, u)
		copy(down, d)
		for _, j := range jumps[l] {
			emit(int(j.to), j.rate)
		}
	}
}

// GTHLineMasses returns the exact mass of every line of the chain of n
// states that line describes in lines of the given width (see
// gthLineMasses).
func GTHLineMasses(n, width int, line LineFunc) []float64 { return gthLineMasses(n, width, line) }

// outflows returns the total outflow rate of every state of g, the negated
// diagonal of Q.
func outflows(g *Generator) []float64 {
	var out []float64
	for l := range g.lines {
		up, down, leave := g.rates(l)
		for q := range up {
			out = append(out, leave+up[q]+down[q])
		}
	}
	return out
}

// Rows returns the number of rate rows g stores, and how many of them are
// some line's up row and some line's down row.
func Rows(g *Generator) (rows, up, down int) {
	ups, downs := map[int32]bool{}, map[int32]bool{}
	for _, r := range g.lines {
		ups[r.up], downs[r.down] = true, true
	}
	return len(g.rows) / g.width, len(ups), len(downs)
}

// Start returns the starting vector of a solve of g, given the line masses:
// the start that SteadyState writes, rescaled to the masses as SteadyState
// does before the first sweep.
func Start(g *Generator, mass []float64) ([]float64, error) {
	pi := make([]float64, g.n)
	g.start(pi, mass)
	return pi, restore(g, pi, mass)
}

// restore rescales v to the line masses.
func restore(g *Generator, v, mass []float64) error {
	_, err := (&Aggregation{Mass: mass}).rescale(v, g.width)
	return err
}

// SolveRelaxed is SteadyState with ω set to omega after the plain sweeps,
// whatever their contraction rate.
func SolveRelaxed(g *Generator, opts SolveOptions, omega float64) (*Solution, error) {
	return g.steadyState(opts, func(float64) float64 { return omega })
}

// SweepStats is what one sweep reports.
type SweepStats struct {
	// Fitted reports whether the sweep scaled every line to its mass, so
	// that no rescale over the whole vector followed it.
	Fitted bool
	// Change is the L1 distance the sweep moved the iterate.
	Change float64
}

// Iterates runs the given number of sweeps at relaxation factor omega from
// the start of a solve, given the line masses, and returns every
// iterate and what each sweep reported. The sweeps are sweep's four-wide
// passes in colour order, which leave out the lines of mass 0, or, if
// oneAtATime, sweepOneLineAtATime; after a sweep that did not scale every
// line to its mass, the iterate is rescaled as in SteadyState.
func Iterates(g *Generator, sweeps int, oneAtATime bool, mass []float64, omega float64) ([][]float64, []SweepStats, error) {
	pi, err := Start(g, mass)
	if err != nil {
		return nil, nil, err
	}
	invPivot := g.factor()
	rhs := make([]float64, 4*g.width)
	order, colourEnd := g.sweepOrder(mass)
	var iterates [][]float64
	var stats []SweepStats
	for range sweeps {
		var st SweepStats
		if oneAtATime {
			st.Fitted, st.Change = sweepOneLineAtATime(g, pi, invPivot, rhs[:g.width], mass, omega)
		} else {
			st.Fitted, st.Change = g.sweep(pi, invPivot, rhs, mass, order, colourEnd, omega)
		}
		if !st.Fitted {
			if err := restore(g, pi, mass); err != nil {
				return nil, nil, err
			}
		}
		iterates = append(iterates, append([]float64(nil), pi...))
		stats = append(stats, st)
	}
	return iterates, stats, nil
}

// sweepOneLineAtATime is the reference for sweep: one line Gauss–Seidel
// sweep in index order, which the colour order equals, that gathers each
// line's inflow and runs its Thomas pass before it moves to the next line.
// It solves every line, those of mass 0 too. Right after its Thomas pass,
// it keeps the line's old values in rhs, sums the line from its last state
// down, and moves the line as fit does. It reports whether it scaled every
// line to its mass, and how far it moved pi.
func sweepOneLineAtATime(g *Generator, pi, invPivot, rhs, mass []float64, omega float64) (bool, float64) {
	w := g.width
	fitted := true
	var change float64
	for l, s := 0, 0; s < g.n; l, s = l+1, s+w {
		g.inflow(pi, l, rhs)
		ups, down, _ := g.rates(l)
		inv, line := invPivot[s:s+w], pi[s:s+w]
		var r, up float64
		for q := range rhs {
			r = (rhs[q] + up*r) * inv[q]
			rhs[q], up = r, ups[q]
		}
		old := slices.Clone(line)
		x := line[w-1]
		if inv[w-1] != 0 {
			x = rhs[w-1]
		}
		line[w-1] = x
		for q := w - 2; q >= 0; q-- {
			if inv[q] != 0 {
				x = rhs[q] + down[q+1]*inv[q]*x
			}
			line[q] = x
		}
		copy(rhs, old)
		var sum float64
		var signs uint64
		for _, x := range slices.Backward(line) {
			sum += x
			signs |= math.Float64bits(x)
		}
		ok, c := fit(line, rhs, mass, l, sum, signs, omega)
		fitted = fitted && ok
		change += c
	}
	return fitted, change
}

// SolveReadings is SteadyState that also returns each ω the solve read
// from its contraction rates, in the order it read them.
func SolveReadings(g *Generator, opts SolveOptions) (*Solution, []float64, error) {
	var omegas []float64
	sol, err := g.steadyState(opts, func(rho float64) float64 {
		omega := young(rho)
		omegas = append(omegas, omega)
		return omega
	})
	return sol, omegas, err
}
