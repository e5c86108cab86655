package ctmc

import "fmt"

// Colours returns the number of colours of the sweep order of g.
func Colours(g *Generator) int { return len(g.colourEnd) }

// SweepOrderError checks the sweep order of g, built from tf. The order must
// list every line exactly once, colour by colour and in index order within a
// colour, and no transition of tf may join two lines of the same colour.
func SweepOrderError(g *Generator, tf TransitionFunc) error {
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
	var err error
	for s := 0; s < g.n && err == nil; s++ {
		tf(s, func(to int, rate float64) {
			if err == nil && rate > 0 && to/w != s/w && colour[to/w] == colour[s/w] {
				err = fmt.Errorf("state %d -> %d joins lines %d and %d of colour %d", s, to, s/w, to/w, colour[s/w])
			}
		})
	}
	return err
}

// Iterates runs the given number of sweeps from the uniform vector,
// normalizing after each, and returns every iterate. The sweeps are sweep's
// four-wide passes in colour order or, if oneAtATime, sweepOneLineAtATime.
func Iterates(g *Generator, sweeps int, oneAtATime bool) ([][]float64, error) {
	pi := make([]float64, g.n)
	for i := range pi {
		pi[i] = 1 / float64(g.n)
	}
	invPivot := g.factor()
	rhs := make([]float64, 4*g.width)
	var iterates [][]float64
	for range sweeps {
		if oneAtATime {
			sweepOneLineAtATime(g, pi, invPivot, rhs[:g.width])
		} else {
			g.sweep(pi, invPivot, rhs)
		}
		if err := normalize(pi); err != nil {
			return nil, err
		}
		iterates = append(iterates, append([]float64(nil), pi...))
	}
	return iterates, nil
}

// sweepOneLineAtATime is the reference for sweep: one line Gauss–Seidel
// sweep in index order, which the colour order equals, that gathers each
// line's inflow and runs its Thomas pass before it moves to the next line.
func sweepOneLineAtATime(g *Generator, pi, invPivot, rhs []float64) {
	w := g.width
	for l, s := 0, 0; s < g.n; l, s = l+1, s+w {
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
		for q := w - 2; q >= 0; q-- {
			if inv[q] != 0 {
				x = rhs[q] + down[q+1]*inv[q]*x
			}
			line[q] = x
		}
	}
}
