// Package ctmc provides infrastructure for finite continuous-time Markov
// chains whose states fall into lines of equal width: an infinitesimal
// generator built from a description of each line, and an iterative
// steady-state solver, relaxed line Gauss–Seidel. The GPRS Markov model of
// the paper is solved through this package.
//
// With line width W, line l holds the states [l·W, (l+1)·W). Inside a line a
// transition goes one step up or down, so each line is a birth–death chain.
// Between lines a transition keeps the position (the index mod W), and every
// state of a line sends the same transitions to the same lines at the same
// rates. A chain is described by rows and lines (see NewGenerator and
// LineFunc). A row holds W rates, one per position, and the description
// declares each row once: in the GPRS model the rates one step up and one
// step down a line depend only on the GSM calls and the sessions in the on
// state, so many lines share a row. Each line names the row of its rates one
// step up from each position and the row of its rates one step down, and
// emits its jumps, each a (target line, rate) pair, so a description cannot
// break the structure. No matrix is stored either, nor any vector over the
// states. Per line, the generator holds the index of its up row and its down
// row, the total rate of its jumps, and the (source line, rate) pairs of its
// inflow from other lines. A state's total outflow is its line's jump total
// plus its rates up and down. With W = 1 every state is its own line, and
// any chain has this structure, but its line masses are then its whole
// solution.
//
// The line index is then itself a Markov chain, and a solve requires its
// stationary distribution, the exact mass of every line (see
// SolveOptions.Aggregation). Each line starts at the stationary distribution
// of its own birth–death chain, scaled to its mass, and every sweep scales
// each line to its mass right after solving it, before any line that reads
// it (aggregation–disaggregation in the sense of Takahashi and
// Koury–McAllister–Stewart, with the aggregate solve replaced by the exact
// masses). The sweeps, which solve each line's balance equations exactly,
// only resolve the distribution within each line.
//
// A sweep solves the lines in index order, each from the newest values of
// the others, so each line's Thomas pass waits for the one before it. The
// generator therefore also holds a sweep order: the lines coloured so that
// two lines joined by a transition have different colours and the lower
// line has the lower colour, listed colour by colour. The lines of a colour
// do not feed each other, so a sweep solves four of them at a time with
// their Thomas passes interleaved, and as every joined pair is still solved
// in index order, the iterates are those of the index-order sweep, bit for
// bit.
//
// The sweeps are over-relaxed: right after its Thomas pass, each line moves
// from its old values towards the pass's, scaled to its mass, by ω times the
// distance. That uses only the line's own old values, so the colour order
// still gives the iterates of index order. Each sweep also reports the L1
// distance it moved the iterate. A solve runs five plain sweeps, reads the
// contraction rate ρ of the error from the last two distances, and relaxes
// every later sweep by Young's ω = 2/(1+√(1−ρ)) (W. J. Stewart,
// Introduction to the Numerical Solution of Markov Chains, 1994, ch. 3),
// where 0 < ρ < 1 and the distances lie above rounding. The plain rate is
// often still climbing at sweep 5, so three relaxed sweeps later the solve
// reads ρ once more, from the relaxed rate λ of the last two distances by
// Young's relation (λ+ω−1)² = λω²ρ, and relaxes by the ω of that ρ under
// the same conditions. From the tenth
// sweep on, it tests after every sweep whether the distances of the last
// ten sum to at most the tolerance. Two guards keep a relaxed solve from
// ending worse than a plain one: a line whose relaxed values would go
// negative takes its plain values for that sweep, and ten relaxed sweeps
// that shrink that sum less than one plain sweep shrinks a distance set ω
// back to 1.
package ctmc

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Common errors returned by the package.
var (
	// ErrInvalidTransition is returned when a chain description declares a
	// negative or non-finite rate, names a row or jumps to a line out of
	// range, or steps off either end of a line.
	ErrInvalidTransition = errors.New("ctmc: invalid transition")
	// ErrNotIrreducible is returned when the chain has a state with no
	// outgoing transitions (and therefore cannot be irreducible) or when a
	// solver detects a zero steady-state vector.
	ErrNotIrreducible = errors.New("ctmc: chain is not irreducible")
	// ErrInvalidArgument is returned for out-of-range solver or builder
	// arguments.
	ErrInvalidArgument = errors.New("ctmc: invalid argument")
)

// LineFunc describes line l of a chain in lines of width W. It calls
// jump(to, rate) once per transition from every state of line l to the same
// position in line to, and returns the index of its up row, whose rate q is
// that from position q one step up the line, and of its down row, whose rate
// q is that from position q one step down (see NewGenerator). A jump at rate
// 0 or back into line l is ignored.
type LineFunc func(l int, jump func(to int, rate float64)) (up, down int)

// Generator is the infinitesimal generator Q of a finite CTMC with the line
// structure of the package comment.
type Generator struct {
	n, width int

	// rows holds the rate rows the description declared, width rates each.
	rows []float64
	// lines[l] names the rows of line l and its jump total (see rates).
	lines []lineRates

	// from[fromStart[l]:fromStart[l+1]] are the jumps into line l.
	fromStart []int32
	from      []jump

	// order lists the lines colour by colour, in index order within a
	// colour; colour c ends at colourEnd[c] (see colour).
	order, colourEnd []int32

	maxOutRate float64
	nnz        int64
}

// lineRates is what a generator keeps of a line's rates: the index of the
// row of its rates one step up from each position, that of its rates one
// step down, and leave, the sum of its jump rates. A state's total outflow
// rate, the negated diagonal entry of Q, is leave + up + down.
type lineRates struct {
	up, down int32
	leave    float64
}

// rates returns the rates one step up and one step down line l from each
// position, and the line's jump total.
func (g *Generator) rates(l int) (up, down []float64, leave float64) {
	r := g.lines[l]
	return lineOf(g.rows, r.up, g.width), lineOf(g.rows, r.down, g.width), r.leave
}

// jump is a transition from every state of line from to the same position
// in line to.
type jump struct {
	from, to int32
	rate     float64
}

// builder collects the jumps of the lines as NewGenerator visits them. Its
// jump method is bound once, so a build allocates nothing per line.
type builder struct {
	lines, line int
	// jumps are the line-to-line transitions, in the order the lines emit
	// them.
	jumps []jump
	err   error
}

func (b *builder) jump(to int, rate float64) {
	if b.err == nil && (to < 0 || to >= b.lines || !validRate(rate)) {
		b.err = fmt.Errorf("%w: line %d -> %d of %d at rate %v", ErrInvalidTransition, b.line, to, b.lines, rate)
	}
	if b.err != nil || rate == 0 || to == b.line {
		return
	}
	b.jumps = append(b.jumps, jump{int32(b.line), int32(to), rate})
}

// validRate reports whether rate is finite and not negative.
func validRate(rate float64) bool { return rate >= 0 && rate <= math.MaxFloat64 }

// NewGenerator builds the generator of a CTMC with numStates states in lines
// of lineWidth states from its rate rows and its line description. rows
// declares the rows, lineWidth rates each: row i is
// rows[i·lineWidth : (i+1)·lineWidth]. A line's up row must end at 0 and
// its down row start at 0, as no step leaves a line. The generator keeps
// rows, which the caller must not change afterwards. NewGenerator calls line
// once per line. It returns an error wrapping ErrInvalidTransition if a row
// holds a negative or non-finite rate, if a line names a row out of range,
// an up row that does not end at 0 or a down row that does not start at 0,
// or if a jump targets a line out of range or has a negative or non-finite
// rate. It returns an error wrapping ErrNotIrreducible if some state has no
// outgoing transition.
func NewGenerator(numStates, lineWidth int, rows []float64, line LineFunc) (*Generator, error) {
	if numStates <= 0 {
		return nil, fmt.Errorf("%w: numStates = %d", ErrInvalidArgument, numStates)
	}
	if numStates > math.MaxInt32 {
		return nil, fmt.Errorf("%w: numStates = %d exceeds int32 indexing", ErrInvalidArgument, numStates)
	}
	if lineWidth <= 0 || numStates%lineWidth != 0 {
		return nil, fmt.Errorf("%w: line width %d does not divide %d states", ErrInvalidArgument, lineWidth, numStates)
	}
	if len(rows)%lineWidth != 0 || len(rows)/lineWidth > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d rates do not form rows of %d", ErrInvalidArgument, len(rows), lineWidth)
	}
	if line == nil {
		return nil, fmt.Errorf("%w: nil line function", ErrInvalidArgument)
	}

	// Check every row once, and count its non-zero rates.
	nonZero := make([]int64, len(rows)/lineWidth)
	for r := range nonZero {
		for q, x := range lineOf(rows, int32(r), lineWidth) {
			if !validRate(x) {
				return nil, fmt.Errorf("%w: row %d has rate %v at position %d", ErrInvalidTransition, r, x, q)
			}
			if x != 0 {
				nonZero[r]++
			}
		}
	}

	lines := numStates / lineWidth
	g := &Generator{n: numStates, width: lineWidth, rows: rows, lines: make([]lineRates, lines)}
	// The jumps have room for eight per line before they grow.
	b := &builder{lines: lines, jumps: make([]jump, 0, 8*lines)}
	jumpTo := b.jump
	// dead is the first state with no outgoing transition, reported once
	// every line has been checked for invalid transitions.
	dead := -1
	var nnz int64
	var maxOut float64
	for s := 0; b.line < lines; b.line, s = b.line+1, s+lineWidth {
		first := len(b.jumps)
		u, d := line(b.line, jumpTo)
		if b.err != nil {
			return nil, b.err
		}
		if u < 0 || u >= len(nonZero) || d < 0 || d >= len(nonZero) {
			return nil, fmt.Errorf("%w: line %d names up row %d and down row %d of %d", ErrInvalidTransition, b.line, u, d, len(nonZero))
		}
		up, down := lineOf(rows, int32(u), lineWidth), lineOf(rows, int32(d), lineWidth)
		if up[lineWidth-1] != 0 {
			return nil, fmt.Errorf("%w: state %d steps up off the end of line %d", ErrInvalidTransition, s+lineWidth-1, b.line)
		}
		if down[0] != 0 {
			return nil, fmt.Errorf("%w: state %d steps down off the start of line %d", ErrInvalidTransition, s, b.line)
		}
		var leave float64
		for _, j := range b.jumps[first:] {
			leave += j.rate
		}
		nnz += nonZero[u] + nonZero[d] + int64(len(b.jumps)-first)*int64(lineWidth)
		for q, x := range up {
			out := leave + x + down[q]
			if out > maxOut {
				maxOut = out
			}
			if out == 0 && dead < 0 {
				dead = s + q
			}
		}
		g.lines[b.line] = lineRates{int32(u), int32(d), leave}
	}
	if dead >= 0 && numStates > 1 {
		return nil, fmt.Errorf("%w: state %d has no outgoing transitions", ErrNotIrreducible, dead)
	}
	g.nnz, g.maxOutRate = nnz, maxOut

	// Sort the jumps stably by target line, in place: count them per line,
	// sum the counts up to each line's end, and place the jumps of each line
	// backwards from its end, which leaves fromStart at its start. Then move
	// each jump to its place, one cycle of the permutation at a time.
	g.fromStart = make([]int32, lines+1)
	for _, j := range b.jumps {
		g.fromStart[j.to]++
	}
	for l := range lines {
		g.fromStart[l+1] += g.fromStart[l]
	}
	place := make([]int32, len(b.jumps))
	for i, j := range slices.Backward(b.jumps) {
		g.fromStart[j.to]--
		place[i] = g.fromStart[j.to]
	}
	for i := range place {
		for p := place[i]; p != int32(i); p = place[i] {
			b.jumps[i], b.jumps[p] = b.jumps[p], b.jumps[i]
			place[i], place[p] = place[p], p
		}
	}
	g.from = b.jumps
	g.colour()
	return g, nil
}

// colour derives the sweep order. It colours the lines greedily in index
// order, each with the colour after the largest colour of the lower lines
// joined to it by a jump in either direction, and lists them colour by
// colour, in index order within a colour. No line then feeds another of its
// colour, so the sweeps may solve a colour's lines together. And of two
// joined lines, the lower always has the lower colour and is solved first,
// so every line sees the same newest and previous values as in a sweep in
// index order: the colour order is line Gauss–Seidel in index order, bit
// for bit. (The least colour free of the neighbours' would be a colouring
// with fewer colours, but not index order: it turns a directed ring of four
// lines into two pairs that trade their values every sweep and never
// converge.) The colours live in flat arrays: a dense chain can need as
// many colours as it has lines.
func (g *Generator) colour() {
	lines := len(g.fromStart) - 1
	// Before line l is coloured, colour[l] is the least colour its jumps
	// into lower lines leave it: colouring a line raises it in every higher
	// line that jumps into it.
	colour := make([]int32, lines)
	var colours int32
	for l := range lines {
		from := g.from[g.fromStart[l]:g.fromStart[l+1]]
		c := colour[l]
		for _, j := range from {
			if int(j.from) < l {
				c = max(c, colour[j.from]+1)
			}
		}
		for _, j := range from {
			if int(j.from) > l {
				colour[j.from] = max(colour[j.from], c+1)
			}
		}
		colour[l] = c
		colours = max(colours, c+1)
	}
	g.colourEnd = make([]int32, colours)
	for _, c := range colour {
		g.colourEnd[c]++
	}
	// Turn the counts of lines per colour into each colour's start, and fill
	// the colours in index order, which leaves each start at its colour's
	// end.
	var start int32
	for c, count := range g.colourEnd {
		g.colourEnd[c], start = start, start+count
	}
	g.order = make([]int32, lines)
	for l, c := range colour {
		g.order[g.colourEnd[c]] = int32(l)
		g.colourEnd[c]++
	}
}

// NumStates returns the number of states of the chain.
func (g *Generator) NumStates() int { return g.n }

// NumTransitions returns the number of off-diagonal, positive-rate
// transitions: the non-zero steps up and down the lines, and every jump once
// per state of its line.
func (g *Generator) NumTransitions() int64 { return g.nnz }

// inflow sets x, of the line width, to the inflow of line l from the other
// lines under pi.
func (g *Generator) inflow(pi []float64, l int, x []float64) {
	from := g.from[g.fromStart[l]:g.fromStart[l+1]]
	w := len(x)
	// The first len(from) % 4 source lines set x, and the rest add to it four
	// per pass: a line has at most eight sources in the GPRS model, so x is
	// loaded and stored at most three times, not up to eight.
	switch len(from) % 4 {
	case 0:
		clear(x)
	case 1:
		a := lineOf(pi, from[0].from, w)
		ra := from[0].rate
		for q := range x {
			x[q] = ra * a[q]
		}
	case 2:
		a, b := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w)
		ra, rb := from[0].rate, from[1].rate
		for q := range x {
			x[q] = ra*a[q] + rb*b[q]
		}
	case 3:
		a, b, c := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w), lineOf(pi, from[2].from, w)
		ra, rb, rc := from[0].rate, from[1].rate, from[2].rate
		for q := range x {
			x[q] = ra*a[q] + rb*b[q] + rc*c[q]
		}
	}
	for from = from[len(from)%4:]; len(from) >= 4; from = from[4:] {
		a, b := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w)
		c, d := lineOf(pi, from[2].from, w), lineOf(pi, from[3].from, w)
		ra, rb, rc, rd := from[0].rate, from[1].rate, from[2].rate, from[3].rate
		for q := range x {
			x[q] += ra*a[q] + rb*b[q] + rc*c[q] + rd*d[q]
		}
	}
}

// lineOf returns line l of v, in lines of width w.
func lineOf(v []float64, l int32, w int) []float64 { return v[int(l)*w:][:w] }

// Residual returns the infinity norm of pi*Q, i.e. max_j |inflow_j - pi_j d_j|.
// A steady-state vector has residual 0.
func (g *Generator) Residual(pi []float64) (float64, error) {
	if len(pi) != g.n {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrInvalidArgument, len(pi), g.n)
	}
	x := make([]float64, g.width)
	var worst float64
	for l, s := 0, 0; s < g.n; l, s = l+1, s+g.width {
		g.inflow(pi, l, x)
		up, down, leave := g.rates(l)
		for q, sum := range x {
			j := s + q
			if q > 0 {
				sum += pi[j-1] * up[q-1]
			}
			if q+1 < g.width {
				sum += pi[j+1] * down[q+1]
			}
			if r := math.Abs(sum - pi[j]*(leave+up[q]+down[q])); r > worst {
				worst = r
			}
		}
	}
	return worst, nil
}
