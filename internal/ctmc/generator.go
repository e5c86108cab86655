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
// plus its rates up and down. A build does no work per state: it checks
// each row once and visits each line twice, once to check and count its
// jumps and once to write each into its place among the inflow of its
// target line, and a solve finds the largest outflow of a state as it
// computes its pivots. With W = 1 every state is its own line, and any
// chain has this structure, but its line masses are then its whole
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
// A line's inflow from the other lines is a weighted sum of whole source
// lines, contiguous and free of branches. On amd64, when CPUID reports AVX2
// as the package initialises, an assembly kernel sums a line of sixteen
// states or more sixteen states at a time, in four registers of four; a
// narrower line, and every line on a CPU without AVX2 or off amd64, takes a
// Go loop. Both sum the sources in the same order and round every
// product and every sum on its own: the kernel uses no FMA, and the loop
// converts each product to float64, which keeps Go from fusing it into a
// multiply–add. So a line's inflow is the same, bit for bit, on either path,
// on any CPU and at any GOAMD64 level. (A kernel of two states at a time in
// SSE2, which every amd64 CPU has and needs no CPUID, was measured to gain
// nothing.)
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
// still gives the iterates of index order. The pass writes its values into
// scratch of the line's width, and the line, which still holds its old
// values, is written once, by the relaxed update. Each sweep also reports
// the L1 distance it moved the iterate. A solve runs five plain sweeps, reads the
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
// 0 or back into line l is ignored. NewGenerator calls it twice per line,
// and it must emit the same jumps, in the same order, each time.
type LineFunc func(l int, jump func(to int, rate float64)) (up, down int)

// Generator is the infinitesimal generator Q of a finite CTMC with the line
// structure of the package comment. It holds the declared rows and, per
// line, its row indices, its jump total and its inflow, and nothing per
// state.
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

	nnz int64
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

// builder visits the lines of a chain twice as NewGenerator builds it. On
// the first visit, count checks each jump of line, adds its rate to the
// line's jump total leave and counts it into its target line to, in
// fromStart[to+1]. On the second, place writes each jump into from at
// fromStart[to+1], the next free slot of line to's inflow, and moves that
// slot on. Its methods are bound once, so a build allocates nothing per
// line.
type builder struct {
	lines, line int
	// jumps is the number of jumps counted so far.
	jumps     int
	leave     float64
	fromStart []int32
	from      []jump
	err       error
}

func (b *builder) count(to int, rate float64) {
	if b.err == nil && (to < 0 || to >= b.lines || !validRate(rate)) {
		b.err = fmt.Errorf("%w: line %d -> %d of %d at rate %v", ErrInvalidTransition, b.line, to, b.lines, rate)
	}
	if b.err != nil || rate == 0 || to == b.line {
		return
	}
	b.leave += rate
	b.jumps++
	b.fromStart[to+1]++
}

func (b *builder) place(to int, rate float64) {
	if rate == 0 || to == b.line {
		return
	}
	p := b.fromStart[to+1]
	b.from[p] = jump{int32(b.line), int32(to), rate}
	b.fromStart[to+1] = p + 1
}

// validRate reports whether rate is finite and not negative.
func validRate(rate float64) bool { return rate >= 0 && rate <= math.MaxFloat64 }

// NewGenerator builds the generator of a CTMC with numStates states in lines
// of lineWidth states from its rate rows and its line description. rows
// declares the rows, lineWidth rates each: row i is
// rows[i·lineWidth : (i+1)·lineWidth]. A line's up row must end at 0 and
// its down row start at 0, as no step leaves a line. The generator keeps
// rows, which the caller must not change afterwards. NewGenerator calls line
// twice per line, in index order each time: once to check and count its
// jumps, and once to write each into its place among the jumps into its
// target line, so line must emit the same jumps, in the same order, on both
// calls. It returns an error wrapping ErrInvalidTransition if a row holds a
// negative or non-finite rate, if a line names a row out of range, an up row
// that does not end at 0 or a down row that does not start at 0, or if a
// jump targets a line out of range or has a negative or non-finite rate. It
// returns an error wrapping ErrNotIrreducible if some state has no outgoing
// transition. A build costs O(lines + jumps + rows·width), with no work per
// state: only a line whose jump total is 0 is searched for a state with no
// outflow, and the largest outflow of a state is left to the solve (see
// factor).
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
	b := &builder{lines: lines, fromStart: make([]int32, lines+1)}
	count := b.count
	// dead is the first state with no outgoing transition, reported once
	// every line has been checked for invalid transitions. The rates are
	// not negative, so a state's outflow leave + up + down is 0 only where
	// all three are, and only a line whose jump total is 0 can hold one.
	dead := -1
	var nnz int64
	for s := 0; b.line < lines; b.line, s = b.line+1, s+lineWidth {
		b.leave = 0
		u, d := line(b.line, count)
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
		nnz += nonZero[u] + nonZero[d]
		if b.leave == 0 && dead < 0 {
			for q, x := range up {
				if x == 0 && down[q] == 0 {
					dead = s + q
					break
				}
			}
		}
		g.lines[b.line] = lineRates{int32(u), int32(d), b.leave}
	}
	if dead >= 0 && numStates > 1 {
		return nil, fmt.Errorf("%w: state %d has no outgoing transitions", ErrNotIrreducible, dead)
	}
	g.nnz = nnz + int64(b.jumps)*int64(lineWidth)

	// Sort the jumps stably by target line, each written once: turn the
	// counts into the start of each target line's jumps, fromStart[to+1]
	// that of line to, and visit the lines again in index order, so that
	// each target line receives its jumps in the order the lines emit them.
	// That leaves fromStart[to+1] at the end of line to's jumps, which is
	// the start of line to+1's.
	var start int32
	for l := range lines {
		start, b.fromStart[l+1] = start+b.fromStart[l+1], start
	}
	b.from = make([]jump, b.jumps)
	place := b.place
	for b.line = 0; b.line < lines; b.line++ {
		line(b.line, place)
	}
	g.fromStart, g.from = b.fromStart, b.from
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
// lines under pi: x = Σ rate_j · pi[from_j·w : from_j·w + w], a weighted sum
// of whole source lines. On a CPU with AVX2, found once by CPUID as the
// package initialises, a line of width 16 or more takes inflowKernel, which
// sums sixteen states at a time with no fused multiply–add; a narrower line,
// and every line on a CPU without AVX2 or off amd64, takes inflowLoop. Both
// give the same bits.
func (g *Generator) inflow(pi []float64, l int, x []float64) {
	from := g.from[g.fromStart[l]:g.fromStart[l+1]]
	if haveKernel && len(x) >= 16 {
		inflowKernel(x, pi, from)
		return
	}
	inflowLoop(x, pi, from)
}

// inflowLoop sets x to the inflow of a line of width len(x) from the sources
// from under pi. The first len(from) % 4 sources set x, and the rest add to
// it four per pass: a line has at most eight sources in the GPRS model, so x
// is loaded and stored at most three times, not up to eight. Each product is
// converted to float64, which rounds it, so that no build fuses a
// multiply–add: the sums are those of inflowKernel, which fuses none, on
// every GOARCH and GOAMD64 level.
func inflowLoop(x, pi []float64, from []jump) {
	w := len(x)
	switch len(from) % 4 {
	case 0:
		clear(x)
	case 1:
		a := lineOf(pi, from[0].from, w)
		ra := from[0].rate
		for q := range x {
			x[q] = float64(ra * a[q])
		}
	case 2:
		a, b := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w)
		ra, rb := from[0].rate, from[1].rate
		for q := range x {
			x[q] = float64(ra*a[q]) + float64(rb*b[q])
		}
	case 3:
		a, b, c := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w), lineOf(pi, from[2].from, w)
		ra, rb, rc := from[0].rate, from[1].rate, from[2].rate
		for q := range x {
			x[q] = float64(ra*a[q]) + float64(rb*b[q]) + float64(rc*c[q])
		}
	}
	for from = from[len(from)%4:]; len(from) >= 4; from = from[4:] {
		a, b := lineOf(pi, from[0].from, w), lineOf(pi, from[1].from, w)
		c, d := lineOf(pi, from[2].from, w), lineOf(pi, from[3].from, w)
		ra, rb, rc, rd := from[0].rate, from[1].rate, from[2].rate, from[3].rate
		for q := range x {
			x[q] += float64(ra*a[q]) + float64(rb*b[q]) + float64(rc*c[q]) + float64(rd*d[q])
		}
	}
}

// lineOf returns line l of v, in lines of width w.
func lineOf(v []float64, l int32, w int) []float64 { return v[int(l)*w:][:w] }

// Residual returns the infinity norm of pi*Q, i.e. max_j |inflow_j - pi_j d_j|.
// A steady-state vector has residual 0. The first state of a line has no
// state below it and the last none above it, so it handles those two
// outside the loop over the line's inner states.
func (g *Generator) Residual(pi []float64) (float64, error) {
	if len(pi) != g.n {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrInvalidArgument, len(pi), g.n)
	}
	w := g.width
	x := make([]float64, w)
	var worst float64
	for l, s := 0, 0; s < g.n; l, s = l+1, s+w {
		g.inflow(pi, l, x)
		up, down, leave := g.rates(l)
		up, down, line := up[:w], down[:w], pi[s:s+w]
		if w == 1 {
			worst = worse(worst, x[0], line[0], leave+up[0]+down[0])
			continue
		}
		worst = worse(worst, x[0]+line[1]*down[1], line[0], leave+up[0]+down[0])
		for q := 1; q < w-1; q++ {
			worst = worse(worst, x[q]+line[q-1]*up[q-1]+line[q+1]*down[q+1], line[q], leave+up[q]+down[q])
		}
		q := w - 1
		worst = worse(worst, x[q]+line[q-1]*up[q-1], line[q], leave+up[q]+down[q])
	}
	return worst, nil
}

// worse returns |in - p·out|, the residual of a state with inflow in,
// probability p and outflow out, if it exceeds worst, and worst otherwise.
func worse(worst, in, p, out float64) float64 {
	if r := math.Abs(in - p*out); r > worst {
		return r
	}
	return worst
}
