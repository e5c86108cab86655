package ctmc

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// referenceBuilder collects the jumps of the lines as referenceNewGenerator
// visits them.
type referenceBuilder struct {
	lines, line int
	// jumps are the line-to-line transitions, in the order the lines emit
	// them.
	jumps []jump
	err   error
}

func (b *referenceBuilder) jump(to int, rate float64) {
	if b.err == nil && (to < 0 || to >= b.lines || !validRate(rate)) {
		b.err = fmt.Errorf("%w: line %d -> %d of %d at rate %v", ErrInvalidTransition, b.line, to, b.lines, rate)
	}
	if b.err != nil || rate == 0 || to == b.line {
		return
	}
	b.jumps = append(b.jumps, jump{int32(b.line), int32(to), rate})
}

// referenceNewGenerator is the earlier build of NewGenerator, kept as the
// reference it must match: it calls line once per line and collects the
// jumps in emission order, finds the largest outflow and the first dead
// state by a pass over every state, and sorts the jumps by target line in
// place, one cycle of the permutation at a time. It returns the generator
// and the largest outflow of a state.
func referenceNewGenerator(numStates, lineWidth int, rows []float64, line LineFunc) (*Generator, float64, error) {
	if numStates <= 0 {
		return nil, 0, fmt.Errorf("%w: numStates = %d", ErrInvalidArgument, numStates)
	}
	if numStates > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: numStates = %d exceeds int32 indexing", ErrInvalidArgument, numStates)
	}
	if lineWidth <= 0 || numStates%lineWidth != 0 {
		return nil, 0, fmt.Errorf("%w: line width %d does not divide %d states", ErrInvalidArgument, lineWidth, numStates)
	}
	if len(rows)%lineWidth != 0 || len(rows)/lineWidth > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: %d rates do not form rows of %d", ErrInvalidArgument, len(rows), lineWidth)
	}
	if line == nil {
		return nil, 0, fmt.Errorf("%w: nil line function", ErrInvalidArgument)
	}

	nonZero := make([]int64, len(rows)/lineWidth)
	for r := range nonZero {
		for q, x := range lineOf(rows, int32(r), lineWidth) {
			if !validRate(x) {
				return nil, 0, fmt.Errorf("%w: row %d has rate %v at position %d", ErrInvalidTransition, r, x, q)
			}
			if x != 0 {
				nonZero[r]++
			}
		}
	}

	lines := numStates / lineWidth
	g := &Generator{n: numStates, width: lineWidth, rows: rows, lines: make([]lineRates, lines)}
	b := &referenceBuilder{lines: lines, jumps: make([]jump, 0, 8*lines)}
	jumpTo := b.jump
	dead := -1
	var nnz int64
	var maxOut float64
	for s := 0; b.line < lines; b.line, s = b.line+1, s+lineWidth {
		first := len(b.jumps)
		u, d := line(b.line, jumpTo)
		if b.err != nil {
			return nil, 0, b.err
		}
		if u < 0 || u >= len(nonZero) || d < 0 || d >= len(nonZero) {
			return nil, 0, fmt.Errorf("%w: line %d names up row %d and down row %d of %d", ErrInvalidTransition, b.line, u, d, len(nonZero))
		}
		up, down := lineOf(rows, int32(u), lineWidth), lineOf(rows, int32(d), lineWidth)
		if up[lineWidth-1] != 0 {
			return nil, 0, fmt.Errorf("%w: state %d steps up off the end of line %d", ErrInvalidTransition, s+lineWidth-1, b.line)
		}
		if down[0] != 0 {
			return nil, 0, fmt.Errorf("%w: state %d steps down off the start of line %d", ErrInvalidTransition, s, b.line)
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
		return nil, 0, fmt.Errorf("%w: state %d has no outgoing transitions", ErrNotIrreducible, dead)
	}
	g.nnz = nnz

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
	return g, maxOut, nil
}

// ReferenceBuildMismatch builds c with NewGenerator and with
// referenceNewGenerator and returns an error naming the first difference:
// in the error's kind or message, or in the generators' jumps, inflow
// offsets, lines, sweep order, colour ends, transition count or largest
// outflow, rates compared bit for bit.
func ReferenceBuildMismatch(c Chain) error {
	g, err := c.Build()
	ref, refOut, refErr := referenceNewGenerator(c.States, c.Width, c.Rows, c.Line)
	switch {
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || errors.Unwrap(err) != errors.Unwrap(refErr) || err.Error() != refErr.Error() {
			return fmt.Errorf("build error %v, reference %v", err, refErr)
		}
		return nil
	case !slices.EqualFunc(g.from, ref.from, func(a, b jump) bool {
		return a.from == b.from && a.to == b.to && math.Float64bits(a.rate) == math.Float64bits(b.rate)
	}):
		return fmt.Errorf("jumps differ")
	case !slices.Equal(g.fromStart, ref.fromStart):
		return fmt.Errorf("inflow offsets differ")
	case !slices.EqualFunc(g.lines, ref.lines, func(a, b lineRates) bool {
		return a.up == b.up && a.down == b.down && math.Float64bits(a.leave) == math.Float64bits(b.leave)
	}):
		return fmt.Errorf("lines differ")
	case !slices.Equal(g.order, ref.order) || !slices.Equal(g.colourEnd, ref.colourEnd):
		return fmt.Errorf("sweep orders differ")
	case g.nnz != ref.nnz:
		return fmt.Errorf("%d transitions, reference %d", g.nnz, ref.nnz)
	}
	if out := maxOutRate(g); math.Float64bits(out) != math.Float64bits(refOut) {
		return fmt.Errorf("largest outflow %v, reference %v", out, refOut)
	}
	return nil
}
