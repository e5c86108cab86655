package ctmc

import (
	"fmt"
	"math"
	"slices"
)

// SolveOptions controls the steady-state computation.
type SolveOptions struct {
	// Tolerance is the convergence threshold on the L1 change of the
	// iterate, summed over the last 10 sweeps; the zero value means 1e-10.
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

// rescale scales v in place so that every line of width w sums to its mass,
// and returns the L1 distance it moved v. A line of mass 0 is zeroed; a
// line whose current sum is 0 is left as it is, and the vector is then
// renormalized to sum to 1. Like normalize, it clamps tiny negative
// rounding artefacts to zero and returns ErrNotIrreducible for a clearly
// negative entry or a vector summing to zero.
func (a *Aggregation) rescale(v []float64, w int) (float64, error) {
	var total, moved float64
	unmatched := false
	for l, mass := range a.Mass {
		line := v[l*w : (l+1)*w]
		var sum float64
		for q, x := range line {
			if x < 0 {
				if x < -1e-12 {
					return 0, fmt.Errorf("%w: negative probability %v at state %d", ErrNotIrreducible, x, l*w+q)
				}
				line[q] = 0
				moved -= x
				continue
			}
			sum += x
		}
		total += sum
		switch {
		case mass == 0:
			clear(line)
			moved += sum
		case sum == 0:
			unmatched = true
		default:
			f := mass / sum
			for q := range line {
				line[q] *= f
			}
			moved += math.Abs(mass - sum)
		}
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, fmt.Errorf("%w: probability mass %v", ErrNotIrreducible, total)
	}
	if unmatched {
		m, err := normalize(v)
		return moved + m, err
	}
	return moved, nil
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

// window is the number of sweeps whose changes the convergence test sums.
const window = 10

// plainSweeps is the number of unrelaxed sweeps a solve runs before it
// reads its contraction rate from the last two.
const plainSweeps = 5

// roundoff is the L1 change of a sweep below which the change is rounding
// noise, too small to read a contraction rate from.
const roundoff = 1e-12

// Solution holds the result of a steady-state computation.
type Solution struct {
	// Pi is the steady-state probability vector (sums to 1).
	Pi []float64
	// Iterations is the number of sweeps performed.
	Iterations int
	// Relaxation is the relaxation factor ω of the last sweep: 1 if the
	// solve did not relax, or fell back to plain sweeps.
	Relaxation float64
	// Delta is the L1 change of the iterate summed over the last 10 sweeps
	// (fewer if the solve ran fewer), which bounds the iterate's change over
	// those sweeps.
	Delta float64
	// Residual is the infinity norm of pi*Q for the returned vector.
	Residual float64
	// Converged reports whether, before MaxIterations was reached, Delta
	// fell below the tolerance or the changes of the last 10 sweeps
	// repeated, so the iterate cycled on rounding, and whether Residual is at
	// most the tolerance times the largest total outflow rate of a state. A
	// small Delta alone can mean a stalled iteration, not a solution.
	Converged bool
}

// SteadyState computes the stationary distribution pi of the chain, i.e. the
// solution of pi*Q = 0 with sum(pi) = 1.
func (g *Generator) SteadyState(opts SolveOptions) (*Solution, error) {
	return g.steadyState(opts, young)
}

// young returns the relaxation factor for sweeps that contract the error by
// 0 < rho < 1 each: Young's rule 2/(1+sqrt(1-rho)).
func young(rho float64) float64 { return 2 / (1 + math.Sqrt(1-rho)) }

// steadyState is SteadyState with the rule that gives ω for the contraction
// rate of the plain sweeps.
func (g *Generator) steadyState(opts SolveOptions, relaxation func(rho float64) float64) (*Solution, error) {
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
		norm = func(v []float64) (float64, error) { return agg.rescale(v, g.width) }
		mass = agg.Mass
	}
	if g.n == 1 {
		return &Solution{Pi: []float64{1}, Relaxation: 1, Converged: true}, nil
	}

	pi := make([]float64, g.n)
	g.start(pi, mass)
	if _, err := norm(pi); err != nil {
		return nil, err
	}

	invPivot := g.factor()
	rhs := make([]float64, 4*g.width)
	order, colourEnd := g.sweepOrder(mass)
	bound := o.Tolerance * g.maxOutRate
	// changes holds the changes of the last window sweeps, oldest first,
	// since the start or since the solve fell back to plain sweeps.
	var changes [window]float64
	sol := &Solution{}
	omega, sweeps, settled := 1.0, 0, false
	// rho is the contraction rate of the plain sweeps, and last the window
	// at the last check that the relaxed sweeps contract faster.
	rho, last := 0.0, math.Inf(1)
	for iter := 1; iter <= o.MaxIterations; iter++ {
		fitted, change := g.sweep(pi, invPivot, rhs, mass, order, colourEnd, omega)
		if !fitted {
			moved, err := norm(pi)
			if err != nil {
				return nil, err
			}
			change += moved
		}
		prev := changes[window-1]
		copy(changes[:], changes[1:])
		changes[window-1] = change
		sweeps++
		sol.Iterations = iter
		sol.Delta = 0
		for _, c := range changes {
			sol.Delta += c
		}
		switch {
		case sweeps >= window && (sol.Delta <= o.Tolerance || cycles(&changes)):
			sol.Residual, _ = g.Residual(pi)
			if omega == 1 || sol.Residual <= bound {
				settled = true
			} else {
				// Relaxed sweeps can settle off the fixed point of plain
				// ones: go on with plain sweeps and a new window.
				omega, sweeps = 1, 0
				changes = [window]float64{}
			}
		case iter == plainSweeps:
			// Relax only sweeps that contract, by a rate read above rounding.
			if rho = change / prev; rho > 0 && rho < 1 && change > roundoff {
				omega = relaxation(rho)
			}
		case omega != 1 && (iter-plainSweeps)%window == 0:
			// Ten relaxed sweeps that shrink the window less than one
			// plain sweep shrinks a change mean ω is too large for this
			// chain.
			if !(sol.Delta <= rho*last) {
				omega = 1
			}
			last = sol.Delta
		}
		if settled {
			break
		}
	}
	sol.Pi = pi
	sol.Relaxation = omega
	if !settled {
		sol.Residual, _ = g.Residual(pi)
	}
	sol.Converged = settled && sol.Residual <= bound
	return sol, nil
}

// cycles reports whether the per-sweep changes of a full window repeat
// with a period of at most half the window. The iterate then cycles through
// values that differ only by rounding: the sweeps can take it no closer,
// even if each sweep's rounding, summed over the window, exceeds the
// tolerance, and the residual decides whether it converged.
func cycles(changes *[window]float64) bool {
	for p := 1; p <= window/2; p++ {
		if slices.Equal(changes[:window-p], changes[p:]) {
			return true
		}
	}
	return false
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
		up, down, _ := g.rates(l)
		sum := equilibrium(line, up, down)
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
// scratch of four line widths, and order and colourEnd are those of
// sweepOrder. A one-state line is the point update pi_j <- inflow_j / d_j.
// A closed line, which sends nothing out of itself, ends on a pivot of 0: its
// last state keeps its value, the rest are solved from it, and the line's
// mass is set after the pass.
//
// Right after its Thomas pass, the sweep moves each line from its old values
// towards the pass's, scaled to the line's mass if given, by omega times the
// distance (see fit), so every line that reads it sees its new values, in
// colour order as in index order. It reports whether it scaled every line
// to its mass (without masses, it reports false), and the L1 distance it
// moved pi.
func (g *Generator) sweep(pi, invPivot, rhs, mass []float64, order, colourEnd []int32, omega float64) (bool, float64) {
	w := g.width
	fitted := mass != nil
	var change float64
	var start int32
	for _, end := range colourEnd {
		lines := order[start:end]
		start = end
		for ; len(lines) >= 4; lines = lines[4:] {
			ok, c := g.solve4(pi, invPivot, rhs, mass, lines[:4], omega)
			fitted = fitted && ok
			change += c
		}
		for _, l := range lines {
			ok, c := g.solveLine(pi, invPivot, rhs[:w], mass, int(l), omega)
			fitted = fitted && ok
			change += c
		}
	}
	return fitted, change
}

// sweepOrder returns the order in which the sweeps of a solve, given the
// line masses or nil, visit the lines: the colour order of the generator,
// colour c ending at colourEnd[c], without the lines of mass 0. Such a line
// is 0 from the start of the solve on (start and Aggregation.rescale zero
// it), and fit would zero it again after its Thomas pass and report a
// change of 0, so the sweeps leave it as it is. They then group the other
// lines of a colour four at a time differently, which changes only the order
// in which the sweep sums the lines' changes.
func (g *Generator) sweepOrder(mass []float64) (order, colourEnd []int32) {
	if !slices.Contains(mass, 0) {
		return g.order, g.colourEnd
	}
	order = make([]int32, 0, len(g.order))
	colourEnd = make([]int32, len(g.colourEnd))
	var start int32
	for c, end := range g.colourEnd {
		for _, l := range g.order[start:end] {
			if mass[l] != 0 {
				order = append(order, l)
			}
		}
		colourEnd[c], start = int32(len(order)), end
	}
	return order, colourEnd
}

// fit writes the new values of line l, given the values y that the Thomas
// pass left in line, summing to sum with their sign bits ORed in signs, and
// the line's old values in old, which it overwrites. It returns whether it
// scaled the line to its mass, and the L1 distance it moved the line. The
// line moves from old to old + omega·(f·y − old), with f = mass/sum, or 1
// without masses; if that is negative anywhere, it moves to f·y, so it
// stays positive and keeps its mass. A line of mass 0 is zeroed. A line
// with a negative y, or whose sum is 0 or not finite, is set to y for
// Aggregation.rescale or normalize over the whole vector after the sweep.
func fit(line, old, mass []float64, l int, sum float64, signs uint64, omega float64) (bool, float64) {
	f, fitted := 1.0, true
	switch {
	case mass != nil && mass[l] == 0:
		var change float64
		for _, x := range old {
			change += math.Abs(x)
		}
		clear(line)
		return true, change
	case signs>>63 != 0 || !(sum > 0 && sum <= math.MaxFloat64):
		f, omega, fitted = 1, 1, false
	case mass != nil:
		f = mass[l] / sum
	}
	var change float64
	var neg uint64
	for q, y := range line {
		y *= f
		d := y - old[q]
		change += math.Abs(d)
		if omega != 1 {
			old[q], y = y, old[q]+omega*d
			neg |= math.Float64bits(y)
		}
		line[q] = y
	}
	if neg>>63 != 0 {
		copy(line, old)
		return fitted, change
	}
	return fitted, omega * change
}

// solveLine solves line l, given pi at the other lines, and moves it as fit
// does. It reports whether it scaled the line to its mass, and how far it
// moved it.
func (g *Generator) solveLine(pi, invPivot, rhs, mass []float64, l int, omega float64) (bool, float64) {
	w := len(rhs)
	s := l * w
	g.inflow(pi, l, rhs)
	ups, down, _ := g.rates(l)
	inv, line := invPivot[s:s+w], pi[s:s+w]
	var r, up float64
	for q := range rhs {
		r = (rhs[q] + up*r) * inv[q]
		rhs[q], up = r, ups[q]
	}
	// Each entry of rhs is free once read, and keeps the line's old value.
	x := line[w-1]
	if inv[w-1] != 0 {
		x = rhs[w-1]
	}
	rhs[w-1], line[w-1] = line[w-1], x
	sum, signs := x, math.Float64bits(x)
	for q := w - 2; q >= 0; q-- {
		if inv[q] != 0 {
			x = rhs[q] + down[q+1]*inv[q]*x
		}
		rhs[q], line[q] = line[q], x
		sum += x
		signs |= math.Float64bits(x)
	}
	return fit(line, rhs, mass, l, sum, signs, omega)
}

// solve4 solves four lines of one colour, given pi at the other lines, with
// the arithmetic of solveLine for each. It reports whether it scaled all
// four to their masses, and how far it moved them.
func (g *Generator) solve4(pi, invPivot, rhs, mass []float64, lines []int32, omega float64) (bool, float64) {
	w := g.width
	s0, s1, s2, s3 := int(lines[0])*w, int(lines[1])*w, int(lines[2])*w, int(lines[3])*w
	x0, x1, x2, x3 := rhs[:w], rhs[w:][:w], rhs[2*w:][:w], rhs[3*w:][:w]
	g.inflow(pi, int(lines[0]), x0)
	g.inflow(pi, int(lines[1]), x1)
	g.inflow(pi, int(lines[2]), x2)
	g.inflow(pi, int(lines[3]), x3)
	i0, i1, i2, i3 := invPivot[s0:s0+w], invPivot[s1:s1+w], invPivot[s2:s2+w], invPivot[s3:s3+w]

	u0, d0, _ := g.rates(int(lines[0]))
	u1, d1, _ := g.rates(int(lines[1]))
	u2, d2, _ := g.rates(int(lines[2]))
	u3, d3, _ := g.rates(int(lines[3]))
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
	x0[w-1], x1[w-1], x2[w-1], x3[w-1] = l0[w-1], l1[w-1], l2[w-1], l3[w-1]
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
		x0[q], x1[q], x2[q], x3[q] = l0[q], l1[q], l2[q], l3[q]
		l0[q], l1[q], l2[q], l3[q] = y0, y1, y2, y3
		m0, m1, m2, m3 = m0+y0, m1+y1, m2+y2, m3+y3
		n0 |= math.Float64bits(y0)
		n1 |= math.Float64bits(y1)
		n2 |= math.Float64bits(y2)
		n3 |= math.Float64bits(y3)
	}
	f0, c0 := fit(l0, x0, mass, int(lines[0]), m0, n0, omega)
	f1, c1 := fit(l1, x1, mass, int(lines[1]), m1, n1, omega)
	f2, c2 := fit(l2, x2, mass, int(lines[2]), m2, n2, omega)
	f3, c3 := fit(l3, x3, mass, int(lines[3]), m3, n3, omega)
	return f0 && f1 && f2 && f3, c0 + c1 + c2 + c3
}

// factor returns the inverse modified pivot of every state for the Thomas
// pass (0 for a pivot of 0). With d_q = leave + up_q + down_q the state's
// outflow, summed as the build sums it, and e_q = d_q - up_q - down_q the
// rate out of the line, the pivot b_q = d_q - down_q up_{q-1} / b_{q-1} is summed as
// up_q + a_q with a_q = e_q + down_q a_{q-1} / b_{q-1}, as the difference
// loses a factor down/up of accuracy per state on a line with a strong
// drift. down_q is 0 at a line's first state, which restarts the recurrence.
func (g *Generator) factor() []float64 {
	invPivot := make([]float64, g.n)
	var a, inv float64
	for l := range g.lines {
		ups, downs, leave := g.rates(l)
		for q, up := range ups {
			down := downs[q]
			out := leave + up + down
			rest := out - up - down
			if rest < closedLine*out {
				rest = 0
			}
			a = rest + down*a*inv
			inv = 0
			if pivot := up + a; pivot > 0 {
				inv = 1 / pivot
			}
			invPivot[l*g.width+q] = inv
		}
	}
	return invPivot
}

// whole is the aggregate of a chain as one line that holds all its mass.
var whole = Aggregation{Mass: []float64{1}}

// normalize scales the vector to sum to 1, clamps tiny negative rounding
// artefacts to zero and returns the L1 distance it moved the vector. It
// returns ErrNotIrreducible if the vector sums to zero.
func normalize(v []float64) (float64, error) { return whole.rescale(v, len(v)) }
