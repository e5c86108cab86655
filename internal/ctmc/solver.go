package ctmc

import (
	"fmt"
	"math"
)

// SolveOptions controls the steady-state computation.
type SolveOptions struct {
	// Tolerance is the convergence threshold on the relative L1 change of the
	// iterate between convergence checks; the zero value means 1e-10.
	Tolerance float64
	// MaxIterations bounds the number of sweeps; the zero value means 20000.
	MaxIterations int
	// Aggregation optionally provides the exact stationary mass of every
	// line. The solve then starts each line at its mass, and every sweep
	// scales each line to its mass right after solving it, in place of the
	// plain normalization. If nil, each line starts at an even share of 1
	// and the iterate is normalized as a whole after every sweep.
	Aggregation *Aggregation
}

// Aggregation is the exact aggregate of a chain: the stationary probability
// of each of its lines. It is only correct when Mass is the stationary
// distribution of the line process; the solver cannot check that premise.
type Aggregation struct {
	// Mass is the stationary probability of each line, in line order. The
	// entries must be non-negative and sum to 1; a line of mass 0 is zeroed
	// by every rescale.
	Mass []float64
}

// massSumTolerance is how far the line masses of an Aggregation may sum
// from 1.
const massSumTolerance = 1e-9

// validate checks the aggregation against a chain of the given number of
// lines.
func (a *Aggregation) validate(lines int) error {
	if len(a.Mass) != lines {
		return fmt.Errorf("%w: aggregation has %d line masses, want %d", ErrInvalidArgument, len(a.Mass), lines)
	}
	var sum float64
	for l, m := range a.Mass {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("%w: line %d has mass %v", ErrInvalidArgument, l, m)
		}
		sum += m
	}
	if math.Abs(sum-1) > massSumTolerance {
		return fmt.Errorf("%w: line masses sum to %v, want 1", ErrInvalidArgument, sum)
	}
	return nil
}

// rescale scales v in place so that every line of width w sums to its mass.
// A line of mass 0 is zeroed; a line whose current sum is 0 is left as it
// is, and the vector is then renormalized to sum to 1. Like normalize, it
// clamps tiny negative rounding artefacts to zero and returns
// ErrNotIrreducible for a clearly negative entry or a vector summing to
// zero.
func (a *Aggregation) rescale(v []float64, w int) error {
	var total float64
	unmatched := false
	for l, mass := range a.Mass {
		line := v[l*w : (l+1)*w]
		var sum float64
		for q, x := range line {
			if x < 0 {
				if x < -1e-12 {
					return fmt.Errorf("%w: negative probability %v at state %d", ErrNotIrreducible, x, l*w+q)
				}
				line[q] = 0
				continue
			}
			sum += x
		}
		total += sum
		switch {
		case mass == 0:
			clear(line)
		case sum == 0:
			unmatched = true
		default:
			f := mass / sum
			for q := range line {
				line[q] *= f
			}
		}
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("%w: probability mass %v", ErrNotIrreducible, total)
	}
	if unmatched {
		return normalize(v)
	}
	return nil
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 20000
	}
	return o
}

// checkEvery is the number of sweeps between convergence checks.
const checkEvery = 10

// Solution holds the result of a steady-state computation.
type Solution struct {
	// Pi is the steady-state probability vector (sums to 1).
	Pi []float64
	// Iterations is the number of sweeps performed.
	Iterations int
	// Delta is the relative L1 change of the iterate at the last convergence
	// check.
	Delta float64
	// Residual is the infinity norm of pi*Q for the returned vector.
	Residual float64
	// Converged reports whether Delta fell below the tolerance before
	// MaxIterations was reached and Residual is at most the tolerance times
	// the largest total outflow rate of a state. A small Delta alone can
	// mean a stalled iteration, not a solution.
	Converged bool
}

// SteadyState computes the stationary distribution pi of the chain, i.e. the
// solution of pi*Q = 0 with sum(pi) = 1.
func (g *Generator) SteadyState(opts SolveOptions) (*Solution, error) {
	o := opts.withDefaults()
	// norm restores the invariants of an iterate: a probability vector, and
	// with an aggregation, the exact line masses. The sweeps restore the line
	// masses themselves, so with an aggregation it only runs after a sweep
	// that could not scale some line.
	norm := normalize
	var mass []float64
	if agg := o.Aggregation; agg != nil {
		if err := agg.validate(g.n / g.width); err != nil {
			return nil, err
		}
		norm = func(v []float64) error { return agg.rescale(v, g.width) }
		mass = agg.Mass
	}
	if g.n == 1 {
		return &Solution{Pi: []float64{1}, Converged: true}, nil
	}

	pi := make([]float64, g.n)
	g.start(pi, mass)
	if err := norm(pi); err != nil {
		return nil, err
	}

	invPivot := g.factor()
	rhs := make([]float64, 4*g.width)
	prev := make([]float64, g.n)
	sol := &Solution{}
	for iter := 1; iter <= o.MaxIterations; iter++ {
		if !g.sweep(pi, invPivot, rhs, mass) {
			if err := norm(pi); err != nil {
				return nil, err
			}
		}
		sol.Iterations = iter
		if iter%checkEvery == 0 || iter == o.MaxIterations {
			sol.Delta = relativeL1Change(prev, pi)
			copy(prev, pi)
			if sol.Delta <= o.Tolerance && iter > checkEvery {
				sol.Converged = true
				break
			}
		}
	}
	sol.Pi = pi
	sol.Residual, _ = g.Residual(pi)
	sol.Converged = sol.Converged && sol.Residual <= o.Tolerance*g.maxOutRate
	return sol, nil
}

// start writes the starting vector of a solve into pi: every line at the
// stationary distribution of its own birth–death chain (see equilibrium),
// scaled to its mass, or without masses to an even share of 1. A line whose
// chain is broken starts with its mass spread evenly over its states. With
// width 1 every line is one state, and the start is the even spread.
func (g *Generator) start(pi, mass []float64) {
	w := g.width
	share := float64(w) / float64(g.n)
	for l, s := 0, 0; s < g.n; l, s = l+1, s+w {
		m := share
		if mass != nil {
			m = mass[l]
		}
		line := pi[s : s+w]
		sum := equilibrium(line, g.up[s:s+w], g.down[s:s+w])
		if sum == 0 {
			for q := range line {
				line[q] = m / float64(w)
			}
			continue
		}
		f := m / sum
		for q := range line {
			line[q] *= f
		}
	}
}

// equilibrium writes into line the stationary distribution of the
// birth–death chain with rates up one step up and down one step down,
// x_0 = 1 and x_{q+1} = x_q up_q / down_{q+1}, and returns its sum. It
// returns 0 if the chain is broken: a down rate of 0, or a product or sum
// that is not finite or underflows to 0.
func equilibrium(line, up, down []float64) float64 {
	x, sum := 1.0, 1.0
	line[0] = x
	for q := 1; q < len(line); q++ {
		next := x * (up[q-1] / down[q])
		if down[q] == 0 || !(next <= math.MaxFloat64) || next == 0 && x != 0 && up[q-1] != 0 {
			return 0
		}
		x, line[q] = next, next
		sum += next
	}
	if sum > math.MaxFloat64 {
		return 0
	}
	return sum
}

// closedLine is the share of a state's outflow below which the part that
// leaves its line counts as 0, so a closed line ends on a pivot of 0.
const closedLine = 1e-12

// sweep runs one line Gauss–Seidel sweep, updating pi in place. It solves
// the balance equations of each line exactly, given the newest inflow rhs
// from the other lines:
// d_q x_q - up_{q-1} x_{q-1} - down_{q+1} x_{q+1} = rhs_q, by a Thomas pass
// over the pivots of factor. It visits the lines in the order of colour,
// which gives the same iterate as index order, four lines of a colour at a
// time: no line feeds another of its colour, so it gathers the four inflows
// first and then runs the four Thomas passes interleaved, as four
// independent chains of dependent multiply-adds that the CPU overlaps. The
// last one to three lines of a colour are solved one at a time. rhs is
// scratch of four line widths. A one-state line is the point update
// pi_j <- inflow_j / d_j. A closed line, which sends nothing out of itself,
// ends on a pivot of 0: its last state keeps its value, the rest are solved
// from it, and the line's mass is set after the pass.
//
// Given the line masses, the sweep scales each line to its mass right after
// its Thomas pass (see fit), so every line that reads it sees it scaled, in
// colour order as in index order. It reports whether it scaled every line;
// without masses, it scales none and reports false.
func (g *Generator) sweep(pi, invPivot, rhs, mass []float64) bool {
	w := g.width
	fitted := mass != nil
	var start int32
	for _, end := range g.colourEnd {
		lines := g.order[start:end]
		start = end
		for ; len(lines) >= 4; lines = lines[4:] {
			if !g.solve4(pi, invPivot, rhs, mass, lines[:4]) {
				fitted = false
			}
		}
		for _, l := range lines {
			if !g.solveLine(pi, invPivot, rhs[:w], mass, int(l)) {
				fitted = false
			}
		}
	}
	return fitted
}

// fit scales a line that the Thomas pass left summing to sum to its mass,
// and reports whether it did. signs is its entries' sign bits, ORed. A line
// with a negative entry, or whose sum is 0 or not finite, is left as it is
// for Aggregation.rescale over the whole vector after the sweep.
func fit(line []float64, mass, sum float64, signs uint64) bool {
	if signs>>63 != 0 || !(sum > 0 && sum <= math.MaxFloat64) {
		return false
	}
	f := mass / sum
	for q := range line {
		line[q] *= f
	}
	return true
}

// solveLine solves line l, given pi at the other lines, and with masses
// scales it to its mass. It reports whether it scaled the line.
func (g *Generator) solveLine(pi, invPivot, rhs, mass []float64, l int) bool {
	w := len(rhs)
	s := l * w
	g.inflow(pi, l, rhs)
	inv, down, line := invPivot[s:s+w], g.down[s:s+w], pi[s:s+w]
	var r, up float64
	for q := range rhs {
		r = (rhs[q] + up*r) * inv[q]
		rhs[q], up = r, g.up[s+q]
	}
	x := line[w-1]
	if inv[w-1] != 0 {
		x = rhs[w-1]
	}
	line[w-1] = x
	sum, signs := x, math.Float64bits(x)
	for q := w - 2; q >= 0; q-- {
		if inv[q] != 0 {
			x = rhs[q] + down[q+1]*inv[q]*x
		}
		line[q] = x
		sum += x
		signs |= math.Float64bits(x)
	}
	return mass != nil && fit(line, mass[l], sum, signs)
}

// solve4 solves four lines of one colour, given pi at the other lines, with
// the arithmetic of solveLine for each, and reports whether it scaled all
// four.
func (g *Generator) solve4(pi, invPivot, rhs, mass []float64, lines []int32) bool {
	w := g.width
	s0, s1, s2, s3 := int(lines[0])*w, int(lines[1])*w, int(lines[2])*w, int(lines[3])*w
	x0, x1, x2, x3 := rhs[:w], rhs[w:][:w], rhs[2*w:][:w], rhs[3*w:][:w]
	g.inflow(pi, int(lines[0]), x0)
	g.inflow(pi, int(lines[1]), x1)
	g.inflow(pi, int(lines[2]), x2)
	g.inflow(pi, int(lines[3]), x3)
	i0, i1, i2, i3 := invPivot[s0:s0+w], invPivot[s1:s1+w], invPivot[s2:s2+w], invPivot[s3:s3+w]

	u0, u1, u2, u3 := g.up[s0:s0+w], g.up[s1:s1+w], g.up[s2:s2+w], g.up[s3:s3+w]
	var r0, r1, r2, r3, p0, p1, p2, p3 float64
	for q := range x0 {
		r0 = (x0[q] + p0*r0) * i0[q]
		r1 = (x1[q] + p1*r1) * i1[q]
		r2 = (x2[q] + p2*r2) * i2[q]
		r3 = (x3[q] + p3*r3) * i3[q]
		x0[q], p0 = r0, u0[q]
		x1[q], p1 = r1, u1[q]
		x2[q], p2 = r2, u2[q]
		x3[q], p3 = r3, u3[q]
	}

	d0, d1, d2, d3 := g.down[s0:s0+w], g.down[s1:s1+w], g.down[s2:s2+w], g.down[s3:s3+w]
	l0, l1, l2, l3 := pi[s0:s0+w], pi[s1:s1+w], pi[s2:s2+w], pi[s3:s3+w]
	y0, y1, y2, y3 := l0[w-1], l1[w-1], l2[w-1], l3[w-1]
	if i0[w-1] != 0 {
		y0 = x0[w-1]
	}
	if i1[w-1] != 0 {
		y1 = x1[w-1]
	}
	if i2[w-1] != 0 {
		y2 = x2[w-1]
	}
	if i3[w-1] != 0 {
		y3 = x3[w-1]
	}
	l0[w-1], l1[w-1], l2[w-1], l3[w-1] = y0, y1, y2, y3
	// Each line's sum and sign bits are gathered in its own chain.
	m0, m1, m2, m3 := y0, y1, y2, y3
	n0, n1, n2, n3 := math.Float64bits(y0), math.Float64bits(y1), math.Float64bits(y2), math.Float64bits(y3)
	for q := w - 2; q >= 0; q-- {
		if i0[q] != 0 {
			y0 = x0[q] + d0[q+1]*i0[q]*y0
		}
		if i1[q] != 0 {
			y1 = x1[q] + d1[q+1]*i1[q]*y1
		}
		if i2[q] != 0 {
			y2 = x2[q] + d2[q+1]*i2[q]*y2
		}
		if i3[q] != 0 {
			y3 = x3[q] + d3[q+1]*i3[q]*y3
		}
		l0[q], l1[q], l2[q], l3[q] = y0, y1, y2, y3
		m0, m1, m2, m3 = m0+y0, m1+y1, m2+y2, m3+y3
		n0 |= math.Float64bits(y0)
		n1 |= math.Float64bits(y1)
		n2 |= math.Float64bits(y2)
		n3 |= math.Float64bits(y3)
	}
	if mass == nil {
		return false
	}
	f0 := fit(l0, mass[lines[0]], m0, n0)
	f1 := fit(l1, mass[lines[1]], m1, n1)
	f2 := fit(l2, mass[lines[2]], m2, n2)
	f3 := fit(l3, mass[lines[3]], m3, n3)
	return f0 && f1 && f2 && f3
}

// factor returns the inverse modified pivot of every state for the Thomas
// pass (0 for a pivot of 0). With e_q = d_q - up_q - down_q the rate out of
// the line, the pivot b_q = d_q - down_q up_{q-1} / b_{q-1} is summed as
// up_q + a_q with a_q = e_q + down_q a_{q-1} / b_{q-1}, as the difference
// loses a factor down/up of accuracy per state on a line with a strong
// drift. down_q is 0 at a line's first state, which restarts the recurrence.
func (g *Generator) factor() []float64 {
	invPivot := make([]float64, g.n)
	var a, inv float64
	for q, up := range g.up {
		down, out := g.down[q], g.out[q]
		rest := out - up - down
		if rest < closedLine*out {
			rest = 0
		}
		a = rest + down*a*inv
		inv = 0
		if pivot := up + a; pivot > 0 {
			inv = 1 / pivot
		}
		invPivot[q] = inv
	}
	return invPivot
}

// whole is the aggregate of a chain as one line that holds all its mass.
var whole = Aggregation{Mass: []float64{1}}

// normalize scales the vector to sum to 1 and clamps tiny negative rounding
// artefacts to zero. It returns ErrNotIrreducible if the vector sums to zero.
func normalize(v []float64) error { return whole.rescale(v, len(v)) }

// relativeL1Change returns |new - old|_1 / |new|_1.
func relativeL1Change(old, cur []float64) float64 {
	var diff, norm float64
	for i := range cur {
		diff += math.Abs(cur[i] - old[i])
		norm += math.Abs(cur[i])
	}
	if norm == 0 {
		return math.Inf(1)
	}
	return diff / norm
}
