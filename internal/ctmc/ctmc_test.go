package ctmc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoStateChain builds the generator of a simple on/off chain with rates
// a (0->1) and b (1->0); its stationary distribution is (b, a)/(a+b).
func twoStateChain(t *testing.T, a, b float64) *Generator {
	t.Helper()
	g, err := NewGenerator(2, 1, func(s int, _, _ []float64, jump func(int, float64)) {
		if s == 0 {
			jump(1, a)
		} else {
			jump(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mmckLine describes an M/M/c/K queue with arrival rate lambda and service
// rate mu as one line of capacity+1 states; state = number in system.
func mmckLine(lambda, mu float64, c, capacity int) LineFunc {
	return func(_ int, up, down []float64, _ func(int, float64)) {
		for s := range up {
			if s < capacity {
				up[s] = lambda
			}
			if s > 0 {
				down[s] = float64(min(s, c)) * mu
			}
		}
	}
}

// mmckExact returns the closed-form distribution of an M/M/c/K queue.
func mmckExact(lambda, mu float64, c, capacity int) []float64 {
	p := make([]float64, capacity+1)
	p[0] = 1
	for s := 1; s <= capacity; s++ {
		busy := s
		if busy > c {
			busy = c
		}
		p[s] = p[s-1] * lambda / (float64(busy) * mu)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestTwoStateChainClosedForm(t *testing.T) {
	const a, b = 0.3, 0.7
	g := twoStateChain(t, a, b)
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Error("did not converge")
	}
	if !almostEqual(sol.Pi[0], b/(a+b), 1e-8) || !almostEqual(sol.Pi[1], a/(a+b), 1e-8) {
		t.Errorf("pi = %v, want [%v %v]", sol.Pi, b/(a+b), a/(a+b))
	}
	if sol.Residual > 1e-8 {
		t.Errorf("residual = %v", sol.Residual)
	}
}

func TestMMcKMatchesClosedForm(t *testing.T) {
	const (
		lambda   = 2.5
		mu       = 1.0
		c        = 3
		capacity = 15
	)
	g, err := NewGenerator(capacity+1, 1, Points(capacity+1, mmckLine(lambda, mu, c, capacity)))
	if err != nil {
		t.Fatal(err)
	}
	want := mmckExact(lambda, mu, c, capacity)
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 200000})
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if !almostEqual(sol.Pi[s], want[s], 1e-7) {
			t.Errorf("pi[%d] = %v, want %v", s, sol.Pi[s], want[s])
		}
	}
}

func TestGeneratorCountsAndRates(t *testing.T) {
	g := twoStateChain(t, 2, 5)
	if g.NumStates() != 2 {
		t.Errorf("NumStates = %d", g.NumStates())
	}
	if g.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d", g.NumTransitions())
	}
	if out := outflows(g); !slices.Equal(out, []float64{2, 5}) {
		t.Errorf("out rates = %v, want [2 5]", out)
	}
	if g.maxOutRate != 5 {
		t.Errorf("maxOutRate = %v, want 5", g.maxOutRate)
	}
}

// TestGeneratorRejectsInvalidInput gives NewGenerator each kind of bad
// input. The valid base is a ring of three lines of two states: up 2 and
// down 3 inside each line, and a jump at rate 1 to the next line.
func TestGeneratorRejectsInvalidInput(t *testing.T) {
	ring := func(l int, up, down []float64, jump func(int, float64)) {
		up[0], down[1] = 2, 3
		jump((l+1)%3, 1)
	}
	if _, err := NewGenerator(6, 2, ring); err != nil {
		t.Fatalf("valid chain: %v", err)
	}
	// with returns the ring with line 1 changed by edit.
	with := func(edit func(up, down []float64, jump func(int, float64))) LineFunc {
		return func(l int, up, down []float64, jump func(int, float64)) {
			ring(l, up, down, jump)
			if l == 1 {
				edit(up, down, jump)
			}
		}
	}
	jumpTo := func(to int, rate float64) LineFunc {
		return with(func(_, _ []float64, jump func(int, float64)) { jump(to, rate) })
	}
	setUp := func(q int, rate float64) LineFunc {
		return with(func(up, _ []float64, _ func(int, float64)) { up[q] = rate })
	}
	setDown := func(q int, rate float64) LineFunc {
		return with(func(_, down []float64, _ func(int, float64)) { down[q] = rate })
	}
	for _, tc := range []struct {
		name     string
		n, width int
		line     LineFunc
		want     error
	}{
		{"jump to a line below 0", 6, 2, jumpTo(-1, 1), ErrInvalidTransition},
		{"jump to a line past the last", 6, 2, jumpTo(3, 1), ErrInvalidTransition},
		{"negative jump rate", 6, 2, jumpTo(0, -1), ErrInvalidTransition},
		{"NaN jump rate", 6, 2, jumpTo(0, math.NaN()), ErrInvalidTransition},
		{"infinite jump rate", 6, 2, jumpTo(0, math.Inf(1)), ErrInvalidTransition},
		{"negative up rate", 6, 2, setUp(0, -1), ErrInvalidTransition},
		{"NaN up rate", 6, 2, setUp(0, math.NaN()), ErrInvalidTransition},
		{"infinite up rate", 6, 2, setUp(0, math.Inf(1)), ErrInvalidTransition},
		{"negative down rate", 6, 2, setDown(1, -1), ErrInvalidTransition},
		{"NaN down rate", 6, 2, setDown(1, math.NaN()), ErrInvalidTransition},
		{"infinite down rate", 6, 2, setDown(1, math.Inf(-1)), ErrInvalidTransition},
		// Line 2's last state steps nowhere; the others still leave by a jump.
		{"state with no outflow", 6, 2, func(l int, up, down []float64, jump func(int, float64)) {
			up[0] = 2
			if l < 2 {
				down[1] = 3
				jump(l+1, 1)
			}
		}, ErrNotIrreducible},
		{"zero states", 0, 1, ring, ErrInvalidArgument},
		{"states beyond int32 indexing", math.MaxInt32 + 1, 1, ring, ErrInvalidArgument},
		{"line width 0", 6, 0, ring, ErrInvalidArgument},
		{"negative line width", 6, -2, ring, ErrInvalidArgument},
		{"line width that does not divide the states", 6, 4, ring, ErrInvalidArgument},
		{"nil line function", 6, 2, nil, ErrInvalidArgument},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGenerator(tc.n, tc.width, tc.line); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNewGeneratorRejectsBrokenLines checks that the one way a line
// description can leave its line, a step up from its last position or down
// from its first, is caught on every line of a ring of three lines, and on
// lines of one state.
func TestNewGeneratorRejectsBrokenLines(t *testing.T) {
	for _, width := range []int{1, 3} {
		for broken := range 3 {
			for _, end := range []string{"up from its last position", "down from its first position"} {
				t.Run(fmt.Sprintf("width %d, line %d steps %s", width, broken, end), func(t *testing.T) {
					_, err := NewGenerator(3*width, width, func(l int, up, down []float64, jump func(int, float64)) {
						for q := range width - 1 {
							up[q], down[q+1] = 1, 1
						}
						jump((l+1)%3, 1)
						switch {
						case l != broken:
						case end == "up from its last position":
							up[width-1] = 1
						default:
							down[0] = 1
						}
					})
					if !errors.Is(err, ErrInvalidTransition) {
						t.Errorf("got %v, want ErrInvalidTransition", err)
					}
				})
			}
		}
	}
}

func TestGeneratorIgnoresSelfLoopsAndZeroRates(t *testing.T) {
	g, err := NewGenerator(2, 1, func(s int, _, _ []float64, jump func(int, float64)) {
		jump(s, 100) // self loop must be ignored
		jump(1-s, 0) // zero rate must be ignored
		jump(1-s, 1) // the real transition
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d, want 2", g.NumTransitions())
	}
	if out := outflows(g)[0]; out != 1 {
		t.Errorf("self loops must not contribute to the outflow rate, got %v", out)
	}
}

func TestSingleStateChain(t *testing.T) {
	g, err := NewGenerator(1, 1, func(int, []float64, []float64, func(int, float64)) {})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Pi) != 1 || sol.Pi[0] != 1 || !sol.Converged {
		t.Errorf("single state solution = %+v", sol)
	}
}

func TestResidual(t *testing.T) {
	g := twoStateChain(t, 0.3, 0.7)
	pi := []float64{0.7, 0.3}
	res, err := g.Residual(pi)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-12 {
		t.Errorf("residual of exact solution = %v", res)
	}
	if _, err := g.Residual([]float64{1}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("wrong-length residual vector should be rejected")
	}
}

// Property: for random ergodic birth-death chains, the Gauss-Seidel solution
// satisfies detailed balance (birth-death chains are reversible) and matches
// the closed-form product solution.
func TestBirthDeathDetailedBalanceProperty(t *testing.T) {
	prop := func(nSeed uint8, birthSeed, deathSeed uint16) bool {
		n := int(nSeed%20) + 2
		birth := 0.1 + float64(birthSeed%100)/20
		death := 0.1 + float64(deathSeed%100)/20
		line := func(_ int, up, down []float64, _ func(int, float64)) {
			for s := range n {
				if s < n-1 {
					up[s] = birth
				}
				if s > 0 {
					down[s] = death * float64(s)
				}
			}
		}
		g, err := NewGenerator(n, 1, Points(n, line))
		if err != nil {
			return false
		}
		sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 100000})
		if err != nil || !sol.Converged {
			return false
		}
		for s := 0; s < n-1; s++ {
			lhs := sol.Pi[s] * birth
			rhs := sol.Pi[s+1] * death * float64(s+1)
			if math.Abs(lhs-rhs) > 1e-6*(1+lhs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolutionProbabilityVectorProperties(t *testing.T) {
	g, err := NewGenerator(50, 1, Points(50, mmckLine(3, 0.5, 4, 49)))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range sol.Pi {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += p
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestNewGeneratorAllocationsIndependentOfStates(t *testing.T) {
	// The jump callback is bound once, so the allocation count of a build
	// does not grow with the number of states. Width 1 is the worst case:
	// every transition is a jump between lines.
	line := Points(1000, mmckLine(3, 0.5, 4, 999))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewGenerator(1000, 1, line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("NewGenerator made %v allocations for 1000 states, want <= 16", allocs)
	}
}

func TestAggregationValidation(t *testing.T) {
	g := twoStateChain(t, 1, 2)
	tests := []struct {
		name string
		mass []float64
	}{
		{"too few masses", []float64{1}},
		{"too many masses", []float64{0.5, 0.25, 0.25}},
		{"no masses", nil},
		{"negative mass", []float64{1.5, -0.5}},
		{"NaN mass", []float64{math.NaN(), 1}},
		{"infinite mass", []float64{math.Inf(1), 0}},
		{"masses sum below 1", []float64{0.25, 0.25}},
		{"masses sum above 1", []float64{0.75, 0.75}},
		{"masses sum off 1 by 1e-8", []float64{0.5, 0.5 + 1e-8}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := g.SteadyState(SolveOptions{Aggregation: &Aggregation{Mass: tc.mass}})
			if !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("got %v, want ErrInvalidArgument", err)
			}
		})
	}
}

func TestAggregationRescale(t *testing.T) {
	agg := &Aggregation{Mass: []float64{0.6, 0.4, 0}}

	v := []float64{1, 3, 2, 2, 7, 1}
	moved, err := agg.rescale(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Lines 0 and 1 shrink from 4 to 0.6 and 0.4, and line 2 loses all 8.
	if !almostEqual(moved, 3.4+3.6+8, 1e-15) {
		t.Errorf("rescale moved v by %v, want 15", moved)
	}
	want := []float64{0.15, 0.45, 0.2, 0.2, 0, 0}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-15) {
			t.Errorf("rescaled v = %v, want %v", v, want)
			break
		}
	}

	// Line 1 holds no mass yet: it is left at zero rather than divided by
	// zero, and the vector is renormalized.
	v = []float64{1, 3, 0, 0, 7, 1}
	moved, err = agg.rescale(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 shrinks by 3.4 and line 2 loses 8; the renormalization then
	// grows line 0 from 0.6 to 1.
	if !almostEqual(moved, 3.4+8+0.4, 1e-15) {
		t.Errorf("rescale moved v by %v, want 11.8", moved)
	}
	want = []float64{0.25, 0.75, 0, 0, 0, 0}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-15) || math.IsNaN(v[i]) {
			t.Errorf("rescaled v = %v, want %v", v, want)
			break
		}
	}

	if _, err := agg.rescale(make([]float64, 6), 2); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("zero vector: got %v, want ErrNotIrreducible", err)
	}
	if _, err := agg.rescale([]float64{1, -1, 0, 0, 0, 0}, 2); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("negative entry: got %v, want ErrNotIrreducible", err)
	}
}

// slowFastChain is a chain on (s, f) in {0..slow} × {0..fast}, indexed
// s·(fast+1)+f, so each line of width fast+1 holds one s. The slow
// coordinate s is an autonomous birth–death process with rates far below
// those of the fast coordinate f, whose rates depend on s. It returns the
// line description and the exact marginal of s, which is the line process's
// stationary distribution.
func slowFastChain(slow, fast int) (LineFunc, []float64) {
	const birth, death = 0.02, 0.01
	line := func(s int, up, down []float64, jump func(int, float64)) {
		if s < slow {
			jump(s+1, birth)
		}
		if s > 0 {
			jump(s-1, death*float64(s))
		}
		for f := range up {
			if f < fast {
				up[f] = 1 + float64(s)
			}
			if f > 0 {
				down[f] = 2.5
			}
		}
	}
	mass := make([]float64, slow+1)
	mass[0] = 1
	sum := 1.0
	for s := 1; s <= slow; s++ {
		mass[s] = mass[s-1] * birth / (death * float64(s))
		sum += mass[s]
	}
	for s := range mass {
		mass[s] /= sum
	}
	return line, mass
}

func TestAggregationMatchesPlainSolveInFewerSweeps(t *testing.T) {
	const slow, fast = 8, 12
	line, mass := slowFastChain(slow, fast)
	points, err := NewGenerator((slow+1)*(fast+1), 1, Points(fast+1, line))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := NewGenerator((slow+1)*(fast+1), fast+1, line)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Tolerance: 1e-12, MaxIterations: 1000000}
	plain, err := points.SteadyState(opts)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	opts.Aggregation = &Aggregation{Mass: mass}
	aggregated, err := lines.SteadyState(opts)
	if err != nil {
		t.Fatalf("aggregated: %v", err)
	}
	if !plain.Converged || !aggregated.Converged {
		t.Fatalf("converged plain=%v aggregated=%v", plain.Converged, aggregated.Converged)
	}
	for i := range plain.Pi {
		if !almostEqual(plain.Pi[i], aggregated.Pi[i], 1e-9) {
			t.Fatalf("pi[%d] plain %v, aggregated %v", i, plain.Pi[i], aggregated.Pi[i])
		}
	}
	if aggregated.Iterations >= plain.Iterations {
		t.Errorf("aggregated solve took %d sweeps, plain %d", aggregated.Iterations, plain.Iterations)
	}
	t.Logf("%d sweeps plain, %d aggregated", plain.Iterations, aggregated.Iterations)
}

func TestClosedLineSolvesToClosedForm(t *testing.T) {
	// A birth–death chain given as one line of mass 1 is one closed line:
	// nothing leaves it, so its last pivot is 0. The sweep keeps the last
	// state's value, solves the rest from it, and the rescale sets the mass.
	const lambda, mu, c, capacity = 2.5, 1.0, 3, 15
	g, err := NewGenerator(capacity+1, capacity+1, mmckLine(lambda, mu, c, capacity))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, Aggregation: &Aggregation{Mass: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("did not converge in %d sweeps", sol.Iterations)
	}
	for s, want := range mmckExact(lambda, mu, c, capacity) {
		if math.IsNaN(sol.Pi[s]) || !almostEqual(sol.Pi[s], want, 1e-12) {
			t.Errorf("pi[%d] = %v, want %v", s, sol.Pi[s], want)
		}
	}
}

// productFormChain is a chain of lines of width fast+1, one per s in
// {0..slow}, that are identical birth–death chains (up 1.5, down 1+q at
// position q) joined by position-preserving jumps of a birth–death process
// on s (up 0.4, down 0.3·s). Its stationary distribution is the product of
// the line process's and each line's own, so every line holds its line
// process mass, spread as its own birth–death chain's equilibrium. If
// broken >= 0, state broken of line 2 has no step down its line. It returns
// the line description and the line process's stationary distribution.
func productFormChain(slow, fast, broken int) (LineFunc, []float64) {
	const birth, death = 0.4, 0.3
	line := func(s int, up, down []float64, jump func(int, float64)) {
		if s < slow {
			jump(s+1, birth)
		}
		if s > 0 {
			jump(s-1, death*float64(s))
		}
		for q := range up {
			if q < fast {
				up[q] = 1.5
			}
			if q > 0 && !(s == 2 && q == broken) {
				down[q] = 1 + float64(q)
			}
		}
	}
	mass := make([]float64, slow+1)
	mass[0] = 1
	sum := 1.0
	for s := 1; s <= slow; s++ {
		mass[s] = mass[s-1] * birth / (death * float64(s))
		sum += mass[s]
	}
	for s := range mass {
		mass[s] /= sum
	}
	return line, mass
}

// TestStartIsEachLineEquilibrium checks the start of a line solve. On a
// product-form chain each line starts at its own birth–death equilibrium
// scaled to its mass, which is already the solution. A line whose chain is
// broken by a down rate of 0 starts with its mass spread evenly, and the
// solve still finds the plain solve's distribution.
func TestStartIsEachLineEquilibrium(t *testing.T) {
	const slow, fast = 5, 9
	const n, w = (slow + 1) * (fast + 1), fast + 1
	t.Run("product form", func(t *testing.T) {
		line, mass := productFormChain(slow, fast, -1)
		g, err := NewGenerator(n, w, line)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := Start(g, mass)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Residual(pi)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-12*g.maxOutRate {
			t.Errorf("the start has residual %v, want at most 1e-12 × %v", res, g.maxOutRate)
		}
	})
	t.Run("down rate of 0 mid-line", func(t *testing.T) {
		const broken = fast / 2
		line, _ := productFormChain(slow, fast, broken)
		points, err := NewGenerator(n, 1, Points(w, line))
		if err != nil {
			t.Fatal(err)
		}
		lines, err := NewGenerator(n, w, line)
		if err != nil {
			t.Fatal(err)
		}
		opts := SolveOptions{Tolerance: 1e-13, MaxIterations: 1000000}
		plain, err := points.SteadyState(opts)
		if err != nil || !plain.Converged {
			t.Fatalf("plain solve: %v, converged %v", err, plain != nil && plain.Converged)
		}
		mass := make([]float64, slow+1)
		for i, p := range plain.Pi {
			mass[i/w] += p
		}
		pi, err := Start(lines, mass)
		if err != nil {
			t.Fatal(err)
		}
		for q, x := range pi[2*w : 3*w] {
			if !almostEqual(x, mass[2]/w, 1e-15*mass[2]) {
				t.Errorf("line 2 starts at %v at position %d, want the even spread %v", x, q, mass[2]/w)
			}
		}
		opts.Aggregation = &Aggregation{Mass: mass}
		sol, err := lines.SteadyState(opts)
		if err != nil || !sol.Converged {
			t.Fatalf("line solve: %v, converged %v", err, sol != nil && sol.Converged)
		}
		for i := range plain.Pi {
			if !almostEqual(sol.Pi[i], plain.Pi[i], 1e-8) {
				t.Fatalf("pi[%d]: line solve %v, plain %v", i, sol.Pi[i], plain.Pi[i])
			}
		}
	})
}

// TestSolveConvergesOnRoundingCycle solves the slow–fast chain's lines
// without masses at tolerances down to 1e-14. Once the iterate is as close
// as rounding lets it come, it alternates between two vectors 9e-15 apart in
// L1, so the changes summed over 10 sweeps stay near 1e-13 however long the
// solve runs. The solve must see the changes repeat and stop there,
// converged.
func TestSolveConvergesOnRoundingCycle(t *testing.T) {
	const slow, fast = 8, 12
	line, _ := slowFastChain(slow, fast)
	g, err := NewGenerator((slow+1)*(fast+1), fast+1, line)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.SteadyState(SolveOptions{Tolerance: 1e-12})
	if err != nil || !ref.Converged {
		t.Fatalf("solve at 1e-12: %v, converged %v", err, ref != nil && ref.Converged)
	}
	for _, tol := range []float64{1e-13, 1e-14} {
		sol, err := g.SteadyState(SolveOptions{Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged {
			t.Fatalf("tolerance %v: not converged after %d sweeps, Delta %v", tol, sol.Iterations, sol.Delta)
		}
		for i := range ref.Pi {
			if !almostEqual(sol.Pi[i], ref.Pi[i], 1e-12) {
				t.Fatalf("tolerance %v: pi[%d] = %v, %v at 1e-12", tol, i, sol.Pi[i], ref.Pi[i])
			}
		}
		t.Logf("tolerance %v: %d sweeps, Delta %v", tol, sol.Iterations, sol.Delta)
	}
}

// TestStalledSolveIsNotConverged gives the line solve valid line masses
// that are not the line process's stationary distribution: the slow–fast
// chain's lines get the uniform mass instead of its birth–death marginal.
// Each sweep solves the lines exactly and the rescale restores the wrong
// masses, so the iterate settles (Delta falls below the tolerance) on a
// vector whose pi*Q is far from 0. Such a solve must not report Converged.
func TestStalledSolveIsNotConverged(t *testing.T) {
	const slow, fast = 8, 12
	line, _ := slowFastChain(slow, fast)
	g, err := NewGenerator((slow+1)*(fast+1), fast+1, line)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]float64, slow+1)
	for l := range uniform {
		uniform[l] = 1 / float64(slow+1)
	}
	const tol = 1e-10
	stalled, err := g.SteadyState(SolveOptions{Tolerance: tol, Aggregation: &Aggregation{Mass: uniform}})
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Delta > tol {
		t.Fatalf("the iterate did not settle: Delta %v after %d sweeps", stalled.Delta, stalled.Iterations)
	}
	if stalled.Converged {
		t.Errorf("line Gauss–Seidel reports convergence after %d sweeps with Delta %v but residual %v",
			stalled.Iterations, stalled.Delta, stalled.Residual)
	}
	t.Logf("settled after %d sweeps, Delta %v, residual %v", stalled.Iterations, stalled.Delta, stalled.Residual)
}

// TestFitMovesLineTowardsThomasPass checks the relaxed update of one line:
// it moves from its old values towards the Thomas pass's, scaled to its
// mass, by ω times the distance, and reports how far it moved; a line that
// would go negative, a line of mass 0 and a line the pass left negative are
// each set as the unrelaxed sweep sets them.
func TestFitMovesLineTowardsThomasPass(t *testing.T) {
	for _, c := range []struct {
		name         string
		old, y, mass []float64
		omega        float64
		want         []float64
		fitted       bool
		change       float64
	}{
		// f = 0.5 scales y to (0.25, 0.25); ω = 1.5 moves 1.5 times as far.
		{"relaxed", []float64{0.1, 0.4}, []float64{0.5, 0.5}, []float64{0.5}, 1.5,
			[]float64{0.325, 0.175}, true, 0.45},
		{"unrelaxed", []float64{0.1, 0.4}, []float64{0.5, 0.5}, []float64{0.5}, 1,
			[]float64{0.25, 0.25}, true, 0.3},
		{"no masses", []float64{0.1, 0.4}, []float64{0.3, 0.2}, nil, 1.5,
			[]float64{0.4, 0.1}, true, 0.6},
		// 0.1 + 1.5·(0 − 0.1) < 0: the line keeps the unrelaxed values.
		{"would go negative", []float64{0.1, 0.4}, []float64{0, 2}, []float64{0.5}, 1.5,
			[]float64{0, 0.5}, true, 0.2},
		{"mass 0", []float64{0.1, 0.4}, []float64{0, 0}, []float64{0}, 1.5,
			[]float64{0, 0}, true, 0.5},
		// Left for the rescale over the whole vector: y, unscaled.
		{"negative pass", []float64{0.1, 0.4}, []float64{-0.5, 1}, []float64{0.5}, 1.5,
			[]float64{-0.5, 1}, false, 1.2},
	} {
		t.Run(c.name, func(t *testing.T) {
			line, old := slices.Clone(c.y), slices.Clone(c.old)
			var sum float64
			var signs uint64
			for _, x := range slices.Backward(line) {
				sum += x
				signs |= math.Float64bits(x)
			}
			fitted, change := fit(line, old, c.mass, 0, sum, signs, c.omega)
			if fitted != c.fitted || !almostEqual(change, c.change, 1e-15) {
				t.Errorf("fit reports fitted %v, change %v; want %v, %v", fitted, change, c.fitted, c.change)
			}
			for q := range line {
				if !almostEqual(line[q], c.want[q], 1e-15) {
					t.Fatalf("line = %v, want %v", line, c.want)
				}
			}
		})
	}
}

// TestTooLargeRelaxationFallsBack forces ω = 1.95 on three small chains, on
// which relaxed sweeps either settle on a vector that is not a solution, or
// shrink the window so slowly that they run 100,000 sweeps without
// converging. The solve must fall back to plain sweeps, report Converged and
// reach the plain solve's distribution.
func TestTooLargeRelaxationFallsBack(t *testing.T) {
	for _, c := range []struct {
		name string
		data string
	}{
		{"slow contraction, 16 states", "W17\xdek\x9e\vp=\xd90\b&\xe9B,P\xe5\v\x81\x15g\xe1\x008\xfd1\xce\xc6"},
		{"slow contraction, 6 states", "\xe1\x92y\u0379.\x14\x95\x8ds~\xb5\x0e7\x04$uQY\x84d>\xaez .-\xeb\xfd\xac\xf6\x80\x87#\xa5\x15\xfc"},
		{"wrong fixed point, 15 states", "|B\xf8\xbf\xc9X\xa8\x9a\xeeP\xad\x0eE>k1\xfc<\u05b2f\x05\x885B\xd4\u0437\u0085\x02\v\xa7\x10\xed\xeb\x93{L>\xbc"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, width, line := fuzzChain([]byte(c.data))
			g, err := NewGenerator(n, 1, Points(width, line))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := SolveRelaxed(g, SolveOptions{Tolerance: 1e-13}, 1)
			if err != nil || !plain.Converged {
				t.Fatalf("plain solve: %v, converged %v", err, plain != nil && plain.Converged)
			}
			sol, err := SolveRelaxed(g, SolveOptions{Tolerance: 1e-10, MaxIterations: 100000}, 1.95)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Converged || sol.Relaxation != 1 {
				t.Fatalf("after %d sweeps: converged %v at ω %v, residual %v; want converged at ω 1",
					sol.Iterations, sol.Converged, sol.Relaxation, sol.Residual)
			}
			for i := range plain.Pi {
				if math.Abs(sol.Pi[i]-plain.Pi[i]) > 1e-10 {
					t.Fatalf("pi[%d] = %v, plain solve %v", i, sol.Pi[i], plain.Pi[i])
				}
			}
			t.Logf("%d sweeps, %d plain", sol.Iterations, plain.Iterations)
		})
	}
}

// fuzzChain decodes fuzz bytes into a small irreducible chain described
// line by line: lines of equal width, each a birth–death chain with random
// rates, joined by random jumps, each from every state of its line to the
// same position in another line at one rate. It returns the number of
// states, the line width and the line description.
//
// The first byte sets the line width W (1..8), the second the number of
// lines L (1..8). The next 2·W·L give the rates from each state one step up
// and one step down its line, where there is such a step. The two bytes of
// the steps a line lacks, down from its first state and up from its last,
// draw its rows from the lines up to it: line l takes the up row of line
// b % (l+1) for the first byte b, and the down row of line b' % (l+1) for
// the second, so that lines share rows as a model's do. The next L bytes
// give the rate of a jump from each line to the next, cyclically (none for
// L = 1).
// Every following triple (from, to, rate) of states adds a transition:
// inside a line, one more step from from towards to, at a rate added to the
// step's; into another line, a jump from from's line to to's. Missing bytes
// read as 0, and every rate lies in [1/16, 16].
func fuzzChain(data []byte) (int, int, LineFunc) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rate := func(b byte) float64 { return (1 + float64(b)) / 16 }
	w := 1 + int(next()%8)
	lines := 1 + int(next()%8)
	n := w * lines
	up, down := make([]float64, n), make([]float64, n)
	for l := range lines {
		var upFrom, downFrom int
		for q := range w {
			u, d := next(), next()
			if q+1 < w {
				up[l*w+q] = rate(u)
			} else {
				upFrom = int(u) % (l + 1)
			}
			if q > 0 {
				down[l*w+q] = rate(d)
			} else {
				downFrom = int(d) % (l + 1)
			}
		}
		copy(up[l*w:(l+1)*w], up[upFrom*w:])
		copy(down[l*w:(l+1)*w], down[downFrom*w:])
	}
	type jump struct {
		to   int
		rate float64
	}
	jumps := make([][]jump, lines)
	for l := range lines {
		if r := rate(next()); lines > 1 {
			jumps[l] = append(jumps[l], jump{(l + 1) % lines, r})
		}
	}
	for len(data) >= 3 {
		from, to, r := int(next())%n, int(next())%n, rate(next())
		switch {
		case from/w != to/w:
			jumps[from/w] = append(jumps[from/w], jump{to / w, r})
		case to < from:
			down[from] += r
		case from%w+1 < w:
			up[from] += r
		case from%w > 0:
			down[from] += r
		}
	}
	return n, w, func(l int, lineUp, lineDown []float64, emit func(int, float64)) {
		copy(lineUp, up[l*w:])
		copy(lineDown, down[l*w:])
		for _, j := range jumps[l] {
			emit(j.to, j.rate)
		}
	}
}

// readBackError checks that Lines(g) reads back the description line that g
// was built from: every line's rates up and down bit for bit, and its jumps
// of a positive rate into other lines, ordered stably by target line.
func readBackError(g *Generator, line LineFunc) error {
	type jump struct {
		to   int
		rate float64
	}
	w := g.width
	up, down, gotUp, gotDown := make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)
	read := Lines(g)
	for l := range g.n / w {
		var want, got []jump
		clear(up)
		clear(down)
		line(l, up, down, func(to int, rate float64) {
			if rate != 0 && to != l {
				want = append(want, jump{to, rate})
			}
		})
		slices.SortStableFunc(want, func(a, b jump) int { return a.to - b.to })
		clear(gotUp)
		clear(gotDown)
		read(l, gotUp, gotDown, func(to int, rate float64) { got = append(got, jump{to, rate}) })
		for q := range w {
			if math.Float64bits(gotUp[q]) != math.Float64bits(up[q]) || math.Float64bits(gotDown[q]) != math.Float64bits(down[q]) {
				return fmt.Errorf("line %d, position %d: read back up %v, down %v; described %v and %v", l, q, gotUp[q], gotDown[q], up[q], down[q])
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("line %d: read back jumps %v, described %v", l, got, want)
		}
	}
	return nil
}

// gthSolve returns the stationary distribution of the irreducible chain of n
// states whose transitions line emits, one state per line, by the
// Grassmann–Taksar–Heyman elimination on the dense rate matrix. GTH forms
// every pivot as a sum of off-diagonal rates rather than from the diagonal,
// so it subtracts nothing and is accurate to a few ulps per state on the
// small chains of FuzzLineSweep, in O(n³) time.
func gthSolve(n int, line LineFunc) []float64 {
	a := make([][]float64, n)
	var none [1]float64
	for i := range a {
		a[i] = make([]float64, n)
		line(i, none[:], none[:], func(to int, rate float64) {
			if to != i {
				a[i][to] += rate
			}
		})
	}
	for k := n - 1; k > 0; k-- {
		var out float64
		for j := range k {
			out += a[k][j]
		}
		for i := range k {
			a[i][k] /= out
		}
		for i := range k {
			for j := range k {
				a[i][j] += a[i][k] * a[k][j]
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	sum := 1.0
	for k := 1; k < n; k++ {
		for i := range k {
			pi[k] += pi[i] * a[i][k]
		}
		sum += pi[k]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

// FuzzLineSweep checks relaxed line Gauss–Seidel on random line-described
// chains. The same chain with one state per line (Points) gives the
// reference: its build must count the same transitions as the line build,
// and the GTH solve of the rate matrix read back from it gives the exact
// distribution. Given the exact line masses from that distribution, the line
// solve must converge to it. Both builds' sweep orders must be colourings:
// every line listed once, and no jump between two lines of one colour. And
// both builds, which store each distinct row once, must read back their
// descriptions exactly.
func FuzzLineSweep(f *testing.F) {
	// One line holding every state: a closed birth–death line.
	f.Add([]byte{7, 0, 1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6, 70, 7, 80, 9,
		0, 3, 7, 5, 2, 200})
	// Every state its own line: point Gauss–Seidel.
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 3, 50, 7, 90, 1,
		4, 2, 5, 30, 6, 0, 9, 100})
	// A directed ring of four states. Coloured with the least colour free of
	// its neighbours', it takes two colours, and the sweep then trades the
	// values of two pairs of states every time and never converges.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16})
	// A chain of five states on which sweeps relaxed by ω ≥ 1.5 and
	// normalized settle on a vector with residual 0.04–0.06.
	f.Add([]byte("0$0000000000%\xc7Y."))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, width, line := fuzzChain(data)
		points, err := NewGenerator(n, 1, Points(width, line))
		if err != nil {
			t.Fatal(err)
		}
		lines, err := NewGenerator(n, width, line)
		if err != nil {
			t.Fatal(err)
		}
		if err := SweepOrderError(points, Points(width, line)); err != nil {
			t.Fatalf("width 1: %v", err)
		}
		if err := SweepOrderError(lines, line); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if err := readBackError(points, Points(width, line)); err != nil {
			t.Fatalf("width 1: %v", err)
		}
		if err := readBackError(lines, line); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if lines.NumTransitions() != points.NumTransitions() {
			t.Fatalf("%d transitions with lines of %d, %d with one state per line",
				lines.NumTransitions(), width, points.NumTransitions())
		}
		exact := gthSolve(n, Lines(points))
		mass := make([]float64, n/width)
		for i, p := range exact {
			mass[i/width] += p
		}
		sol, err := lines.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 1000000, Aggregation: &Aggregation{Mass: mass}})
		if err != nil {
			t.Fatalf("line solve: %v", err)
		}
		if !sol.Converged {
			t.Fatalf("line solve did not converge in %d sweeps", sol.Iterations)
		}
		for i := range exact {
			if !almostEqual(sol.Pi[i], exact[i], 1e-8) {
				t.Fatalf("pi[%d]: line solve %v, GTH %v", i, sol.Pi[i], exact[i])
			}
		}
	})
}
