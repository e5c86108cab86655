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

// oneLine is the aggregation of a chain that is one line: it holds all the
// mass.
func oneLine() *Aggregation { return &Aggregation{Mass: []float64{1}} }

// twoStateChain builds the generator of a simple on/off chain with rates
// a (0->1) and b (1->0) as one line of two states; its stationary
// distribution is (b, a)/(a+b).
func twoStateChain(t *testing.T, a, b float64) *Generator {
	t.Helper()
	g, err := NewGenerator(2, 2, []float64{a, 0, 0, b}, func(int, func(int, float64)) (int, int) { return 0, 1 })
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mmckChain describes an M/M/c/K queue with arrival rate lambda and service
// rate mu as one line of capacity+1 states; state = number in system.
func mmckChain(lambda, mu float64, c, capacity int) Chain {
	w := capacity + 1
	rows := make([]float64, 2*w)
	up, down := rows[:w], rows[w:]
	for s := range w {
		if s < capacity {
			up[s] = lambda
		}
		if s > 0 {
			down[s] = float64(min(s, c)) * mu
		}
	}
	return Chain{w, w, rows, func(int, func(int, float64)) (int, int) { return 0, 1 }}
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
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-12, Aggregation: oneLine()})
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

// TestMMcKMatchesClosedForm solves M/M/c/K queues, each one line of K+1
// states, at light and heavy load and with one server or as many as places.
func TestMMcKMatchesClosedForm(t *testing.T) {
	for _, q := range []struct {
		lambda, mu  float64
		c, capacity int
	}{
		{2.5, 1, 3, 15},
		{0.2, 1.5, 1, 40},
		{30, 0.5, 4, 60},
		{7, 1, 12, 12},
	} {
		g, err := mmckChain(q.lambda, q.mu, q.c, q.capacity).Build()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, Aggregation: oneLine()})
		if err != nil || !sol.Converged {
			t.Fatalf("%+v: %v, converged %v", q, err, sol != nil && sol.Converged)
		}
		for s, want := range mmckExact(q.lambda, q.mu, q.c, q.capacity) {
			if !almostEqual(sol.Pi[s], want, 1e-12) {
				t.Errorf("%+v: pi[%d] = %v, want %v", q, s, sol.Pi[s], want)
			}
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
// input. The valid base is a ring of three lines of two states: each names
// up row 0, (2, 0), and down row 1, (0, 3), and jumps at rate 1 to the next
// line.
func TestGeneratorRejectsInvalidInput(t *testing.T) {
	rows := []float64{2, 0, 0, 3}
	ring := func(l int, jump func(int, float64)) (int, int) {
		jump((l+1)%3, 1)
		return 0, 1
	}
	if _, err := NewGenerator(6, 2, rows, ring); err != nil {
		t.Fatalf("valid chain: %v", err)
	}
	// jumpTo returns the ring with one more jump of line 1.
	jumpTo := func(to int, rate float64) LineFunc {
		return func(l int, jump func(int, float64)) (int, int) {
			if l == 1 {
				jump(to, rate)
			}
			return ring(l, jump)
		}
	}
	// names returns the ring with line 1 naming rows up and down.
	names := func(up, down int) LineFunc {
		return func(l int, jump func(int, float64)) (int, int) {
			u, d := ring(l, jump)
			if l == 1 {
				return up, down
			}
			return u, d
		}
	}
	// rate returns the ring's rows with rate i set to x.
	rate := func(i int, x float64) []float64 {
		r := slices.Clone(rows)
		r[i] = x
		return r
	}
	for _, tc := range []struct {
		name     string
		n, width int
		rows     []float64
		line     LineFunc
		want     error
	}{
		{"jump to a line below 0", 6, 2, rows, jumpTo(-1, 1), ErrInvalidTransition},
		{"jump to a line past the last", 6, 2, rows, jumpTo(3, 1), ErrInvalidTransition},
		{"negative jump rate", 6, 2, rows, jumpTo(0, -1), ErrInvalidTransition},
		{"NaN jump rate", 6, 2, rows, jumpTo(0, math.NaN()), ErrInvalidTransition},
		{"infinite jump rate", 6, 2, rows, jumpTo(0, math.Inf(1)), ErrInvalidTransition},
		{"up row below 0", 6, 2, rows, names(-1, 1), ErrInvalidTransition},
		{"up row past the last", 6, 2, rows, names(2, 1), ErrInvalidTransition},
		{"down row below 0", 6, 2, rows, names(0, -1), ErrInvalidTransition},
		{"down row past the last", 6, 2, rows, names(0, 2), ErrInvalidTransition},
		{"negative up rate", 6, 2, rate(0, -1), ring, ErrInvalidTransition},
		{"NaN up rate", 6, 2, rate(0, math.NaN()), ring, ErrInvalidTransition},
		{"infinite up rate", 6, 2, rate(0, math.Inf(1)), ring, ErrInvalidTransition},
		{"negative down rate", 6, 2, rate(3, -1), ring, ErrInvalidTransition},
		{"NaN down rate", 6, 2, rate(3, math.NaN()), ring, ErrInvalidTransition},
		{"infinite down rate", 6, 2, rate(3, math.Inf(-1)), ring, ErrInvalidTransition},
		{"NaN rate in a row no line names", 6, 2, append(slices.Clone(rows), 0, math.NaN()), ring, ErrInvalidTransition},
		{"up row whose last rate is not 0", 6, 2, rate(1, 1), ring, ErrInvalidTransition},
		{"down row whose first rate is not 0", 6, 2, rate(2, 1), ring, ErrInvalidTransition},
		{"down row named as an up row", 6, 2, rows, names(1, 1), ErrInvalidTransition},
		{"up row named as a down row", 6, 2, rows, names(0, 0), ErrInvalidTransition},
		// Line 2's down row is 0, so its last state steps nowhere; the
		// others still leave by a jump.
		{"state with no outflow", 6, 2, append(slices.Clone(rows), 0, 0), func(l int, jump func(int, float64)) (int, int) {
			if l < 2 {
				jump(l+1, 1)
				return 0, 1
			}
			return 0, 2
		}, ErrNotIrreducible},
		{"zero states", 0, 1, rows, ring, ErrInvalidArgument},
		{"states beyond int32 indexing", math.MaxInt32 + 1, 1, rows, ring, ErrInvalidArgument},
		{"line width 0", 6, 0, rows, ring, ErrInvalidArgument},
		{"negative line width", 6, -2, rows, ring, ErrInvalidArgument},
		{"line width that does not divide the states", 6, 4, rows, ring, ErrInvalidArgument},
		{"rates that do not form whole rows", 6, 2, rows[:3], ring, ErrInvalidArgument},
		{"nil line function", 6, 2, rows, nil, ErrInvalidArgument},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGenerator(tc.n, tc.width, tc.rows, tc.line); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNewGeneratorRejectsBrokenLines checks that the one way a line
// description can leave its line, an up row that steps up from its last
// position or a down row that steps down from its first, is caught on
// every line of a ring of three lines, and on lines of one state. Rows 0
// and 1 are a valid up and down row, rows 2 and 3 the same rows broken at
// their ends.
func TestNewGeneratorRejectsBrokenLines(t *testing.T) {
	for _, width := range []int{1, 3} {
		rows := make([]float64, 4*width)
		for q := range width - 1 {
			rows[q], rows[width+q+1] = 1, 1
			rows[2*width+q], rows[3*width+q+1] = 1, 1
		}
		rows[3*width-1], rows[3*width] = 1, 1
		for broken := range 3 {
			for _, end := range []string{"up from its last position", "down from its first position"} {
				t.Run(fmt.Sprintf("width %d, line %d steps %s", width, broken, end), func(t *testing.T) {
					_, err := NewGenerator(3*width, width, rows, func(l int, jump func(int, float64)) (int, int) {
						jump((l+1)%3, 1)
						switch {
						case l != broken:
							return 0, 1
						case end == "up from its last position":
							return 2, 1
						default:
							return 0, 3
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
	g, err := NewGenerator(2, 1, []float64{0}, func(s int, jump func(int, float64)) (int, int) {
		jump(s, 100) // self loop must be ignored
		jump(1-s, 0) // zero rate must be ignored
		jump(1-s, 1) // the real transition
		return 0, 0
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
	g, err := NewGenerator(1, 1, []float64{0}, func(int, func(int, float64)) (int, int) { return 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{Aggregation: oneLine()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Pi) != 1 || sol.Pi[0] != 1 || !sol.Converged {
		t.Errorf("single state solution = %+v", sol)
	}
	if _, err := g.SteadyState(SolveOptions{}); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("solve without line masses: got %v, want ErrInvalidArgument", err)
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

// Property: for random ergodic birth-death chains, each one line, the line
// solution satisfies detailed balance (birth-death chains are reversible).
func TestBirthDeathDetailedBalanceProperty(t *testing.T) {
	prop := func(nSeed uint8, birthSeed, deathSeed uint16) bool {
		n := int(nSeed%20) + 2
		birth := 0.1 + float64(birthSeed%100)/20
		death := 0.1 + float64(deathSeed%100)/20
		rows := make([]float64, 2*n)
		for s := range n {
			if s < n-1 {
				rows[s] = birth
			}
			if s > 0 {
				rows[n+s] = death * float64(s)
			}
		}
		g, err := NewGenerator(n, n, rows, func(int, func(int, float64)) (int, int) { return 0, 1 })
		if err != nil {
			return false
		}
		sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, Aggregation: oneLine()})
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
	g, err := mmckChain(3, 0.5, 4, 49).Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{Aggregation: oneLine()})
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
	// every transition is a jump between lines. A build makes 11: the row
	// counts, the generator and its lines, the builder, its bound jump
	// callback and the jumps, the inflow offsets, the sort's places, and the
	// sweep order's colours, colour ends and order.
	points := Points(mmckChain(3, 0.5, 4, 999))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := points.Build(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 11 {
		t.Errorf("NewGenerator made %v allocations for 1000 states, want <= 11", allocs)
	}
}

func TestAggregationValidation(t *testing.T) {
	c, _ := slowFastChain(1, 1)
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	masses := func(m ...float64) *Aggregation { return &Aggregation{Mass: m} }
	tests := []struct {
		name string
		agg  *Aggregation
	}{
		{"no aggregation", nil},
		{"too few masses", masses(1)},
		{"too many masses", masses(0.5, 0.25, 0.25)},
		{"no masses", masses()},
		{"negative mass", masses(1.5, -0.5)},
		{"NaN mass", masses(math.NaN(), 1)},
		{"infinite mass", masses(math.Inf(1), 0)},
		{"masses sum below 1", masses(0.25, 0.25)},
		{"masses sum above 1", masses(0.75, 0.75)},
		{"masses sum off 1 by 1e-8", masses(0.5, 0.5+1e-8)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if sol, err := g.SteadyState(SolveOptions{Aggregation: tc.agg}); !errors.Is(err, ErrInvalidArgument) || sol != nil {
				t.Errorf("got %v and %v, want ErrInvalidArgument and no solution", sol, err)
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
// stationary distribution. Row 0 is the down row every line names, and row
// 1 + s the up row of line s.
func slowFastChain(slow, fast int) (Chain, []float64) {
	const birth, death = 0.02, 0.01
	w := fast + 1
	rows := make([]float64, (slow+2)*w)
	for f := 1; f < w; f++ {
		rows[f] = 2.5
	}
	for s := range slow + 1 {
		for f := range fast {
			rows[(1+s)*w+f] = 1 + float64(s)
		}
	}
	line := func(s int, jump func(int, float64)) (int, int) {
		if s < slow {
			jump(s+1, birth)
		}
		if s > 0 {
			jump(s-1, death*float64(s))
		}
		return 1 + s, 0
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
	return Chain{(slow + 1) * w, w, rows, line}, mass
}

// TestSlowFastChainMatchesGTH solves the slow–fast chain with the closed-form
// marginal of its slow coordinate as line masses. Those masses must be the
// GTH solution of its line chain, and the line solve must reach the GTH
// solution of the whole chain.
func TestSlowFastChainMatchesGTH(t *testing.T) {
	const slow, fast = 8, 12
	c, mass := slowFastChain(slow, fast)
	for l, m := range gthLineMasses(c) {
		if !almostEqual(m, mass[l], 1e-15) {
			t.Fatalf("line %d: closed-form mass %v, GTH %v", l, mass[l], m)
		}
	}
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-12, Aggregation: &Aggregation{Mass: mass}})
	if err != nil || !sol.Converged {
		t.Fatalf("line solve: %v, converged %v", err, sol != nil && sol.Converged)
	}
	for i, want := range gthSolve(Points(c)) {
		if !almostEqual(sol.Pi[i], want, 1e-12) {
			t.Fatalf("pi[%d] = %v, GTH %v", i, sol.Pi[i], want)
		}
	}
	t.Logf("%d sweeps", sol.Iterations)
}

func TestClosedLineSolvesToClosedForm(t *testing.T) {
	// A birth–death chain given as one line of mass 1 is one closed line:
	// nothing leaves it, so its last pivot is 0. The sweep keeps the last
	// state's value, solves the rest from it, and the rescale sets the mass.
	const lambda, mu, c, capacity = 2.5, 1.0, 3, 15
	g, err := mmckChain(lambda, mu, c, capacity).Build()
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
// broken >= 0, state broken of line 2 has no step down its line: line 2
// names row 2, a copy of down row 1 set to 0 at position broken. It returns
// the chain and the line process's stationary distribution.
func productFormChain(slow, fast, broken int) (Chain, []float64) {
	const birth, death = 0.4, 0.3
	w := fast + 1
	rows := make([]float64, 3*w)
	for q := range w {
		if q < fast {
			rows[q] = 1.5
		}
		if q > 0 {
			rows[w+q], rows[2*w+q] = 1+float64(q), 1+float64(q)
		}
	}
	if broken >= 0 {
		rows[2*w+broken] = 0
	}
	line := func(s int, jump func(int, float64)) (int, int) {
		if s < slow {
			jump(s+1, birth)
		}
		if s > 0 {
			jump(s-1, death*float64(s))
		}
		if s == 2 {
			return 0, 2
		}
		return 0, 1
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
	return Chain{(slow + 1) * w, w, rows, line}, mass
}

// TestStartIsEachLineEquilibrium checks the start of a line solve. On a
// product-form chain each line starts at its own birth–death equilibrium
// scaled to its mass, which is already the solution. A line whose chain is
// broken by a down rate of 0 starts with its mass spread evenly, and the
// solve still finds the GTH solution. The break stays inside line 2, so
// the line process and its masses are those of the unbroken chain.
func TestStartIsEachLineEquilibrium(t *testing.T) {
	const slow, fast = 5, 9
	const w = fast + 1
	t.Run("product form", func(t *testing.T) {
		c, mass := productFormChain(slow, fast, -1)
		g, err := c.Build()
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
		c, mass := productFormChain(slow, fast, broken)
		lines, err := c.Build()
		if err != nil {
			t.Fatal(err)
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
		sol, err := lines.SteadyState(SolveOptions{Tolerance: 1e-13, Aggregation: &Aggregation{Mass: mass}})
		if err != nil || !sol.Converged {
			t.Fatalf("line solve: %v, converged %v", err, sol != nil && sol.Converged)
		}
		for i, want := range gthSolve(Points(c)) {
			if !almostEqual(sol.Pi[i], want, 1e-12) {
				t.Fatalf("pi[%d]: line solve %v, GTH %v", i, sol.Pi[i], want)
			}
		}
	})
}

// TestStalledSolveIsNotConverged gives the line solve valid line masses
// that are not the line process's stationary distribution: the slow–fast
// chain's lines get the uniform mass instead of its birth–death marginal.
// Each sweep solves the lines exactly and the rescale restores the wrong
// masses, so the iterate settles (Delta falls below the tolerance) on a
// vector whose pi*Q is far from 0. Such a solve must not report Converged.
func TestStalledSolveIsNotConverged(t *testing.T) {
	const slow, fast = 8, 12
	c, _ := slowFastChain(slow, fast)
	g, err := c.Build()
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

// TestTooLargeRelaxationFallsBack forces ω = 1.95 on three small chains,
// given their exact line masses. Relaxed that far throughout, their sweeps
// contract slowly (280 and 708 sweeps to 1e-10, where falling back takes
// 40) or not at all (the 15-state chain runs 100,000 sweeps unconverged).
// The solve must fall back to plain sweeps, report Converged and reach the
// GTH solution.
func TestTooLargeRelaxationFallsBack(t *testing.T) {
	for _, c := range []struct {
		name string
		data string
	}{
		{"slow contraction, 16 states", "W17\xdek\x9e\vp=\xd90\b&\xe9B,P\xe5\v\x81\x15g\xe1\x008\xfd1\xce\xc6"},
		{"slow contraction, 6 states", "\xe1\x92y\u0379.\x14\x95\x8ds~\xb5\x0e7\x04$uQY\x84d>\xaez .-\xeb\xfd\xac\xf6\x80\x87#\xa5\x15\xfc"},
		{"no contraction, 15 states", "|B\xf8\xbf\xc9X\xa8\x9a\xeeP\xad\x0eE>k1\xfc<\u05b2f\x05\x885B\xd4\u0437\u0085\x02\v\xa7\x10\xed\xeb\x93{L>\xbc"},
	} {
		t.Run(c.name, func(t *testing.T) {
			chain := fuzzChain([]byte(c.data))
			g, err := chain.Build()
			if err != nil {
				t.Fatal(err)
			}
			agg := &Aggregation{Mass: gthLineMasses(chain)}
			sol, err := SolveRelaxed(g, SolveOptions{Tolerance: 1e-10, MaxIterations: 100000, Aggregation: agg}, 1.95)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Converged || sol.Relaxation != 1 {
				t.Fatalf("after %d sweeps: converged %v at ω %v, residual %v; want converged at ω 1",
					sol.Iterations, sol.Converged, sol.Relaxation, sol.Residual)
			}
			for i, want := range gthSolve(Points(chain)) {
				if math.Abs(sol.Pi[i]-want) > 1e-10 {
					t.Fatalf("pi[%d] = %v, GTH %v", i, sol.Pi[i], want)
				}
			}
			t.Logf("%d sweeps", sol.Iterations)
		})
	}
}

// TestOvershootingSecondReadingFallsBack solves an 18-state chain, given
// its exact line masses, on which the second reading of ω overshoots: 1.44
// from the plain sweeps, then 1.78 from the relaxed ones, where a fixed 1.78
// takes more sweeps than a fixed 1.44. Guard 2 must set ω back to 1, and the
// solve must converge to the GTH solution.
func TestOvershootingSecondReadingFallsBack(t *testing.T) {
	const data = "\r*\x18\x06\xe7ρ\xc3\xe50\xb7˷LJ逤\x022I\x05\xd9<\a' v\rm\x12\x9a0){\x89I-ǣ\xd9V"
	c := fuzzChain([]byte(data))
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Tolerance: 1e-10, MaxIterations: 100000, Aggregation: &Aggregation{Mass: gthLineMasses(c)}}
	sol, omegas, err := SolveReadings(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(omegas) != 2 || omegas[1] <= omegas[0] {
		t.Fatalf("read ω %v, want a second reading above the first", omegas)
	}
	var sweeps [2]int
	for i, omega := range omegas {
		fixed, err := SolveRelaxed(g, opts, omega)
		if err != nil {
			t.Fatal(err)
		}
		sweeps[i] = fixed.Iterations
	}
	if sweeps[1] <= sweeps[0] {
		t.Errorf("fixed ω %v takes %d sweeps, %v takes %d: the second reading does not overshoot",
			omegas[1], sweeps[1], omegas[0], sweeps[0])
	}
	if !sol.Converged || sol.Relaxation != 1 {
		t.Fatalf("after %d sweeps: converged %v at ω %v, residual %v; want converged at ω 1",
			sol.Iterations, sol.Converged, sol.Relaxation, sol.Residual)
	}
	for i, want := range gthSolve(Points(c)) {
		if math.Abs(sol.Pi[i]-want) > 1e-10 {
			t.Fatalf("pi[%d] = %v, GTH %v", i, sol.Pi[i], want)
		}
	}
	t.Logf("read ω %v; %d sweeps, fixed at each reading %v", omegas, sol.Iterations, sweeps)
}

// fuzzChain decodes fuzz bytes into a small irreducible chain described
// line by line: lines of equal width, each a birth–death chain with random
// rates, joined by random jumps, each from every state of its line to the
// same position in another line at one rate.
//
// The first byte sets the line width W (1..8), the second the number of
// lines L (1..8). The next 2·W·L give the rates from each state one step up
// and one step down its line, where there is such a step. The two bytes of
// the steps a line lacks, down from its first state and up from its last,
// draw its rows from the lines up to it: line l names the up row of line
// b % (l+1) for the first byte b, and the down row of line b' % (l+1) for
// the second, so that lines share rows as a model's do. A line that draws
// its own row declares it. The next L bytes give the rate of a jump from
// each line to the next, cyclically (none for L = 1).
// Every following triple (from, to, rate) of states adds a transition:
// inside a line, one more step from from towards to, at a rate added to the
// step's in a row of that line's own, declared the first time a row other
// lines name changes; into another line, a jump from from's line to to's.
// Missing bytes read as 0, and every rate lies in [1/16, 16].
func fuzzChain(data []byte) Chain {
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
	var rows []float64
	// declare adds a row of rates and returns its index.
	declare := func(row []float64) int {
		rows = append(rows, row...)
		return len(rows)/w - 1
	}
	// named[l] is the up row and the down row line l names.
	named := make([][2]int, lines)
	for l := range lines {
		up, down := make([]float64, w), make([]float64, w)
		var upFrom, downFrom int
		for q := range w {
			u, d := next(), next()
			if q+1 < w {
				up[q] = rate(u)
			} else {
				upFrom = int(u) % (l + 1)
			}
			if q > 0 {
				down[q] = rate(d)
			} else {
				downFrom = int(d) % (l + 1)
			}
		}
		if upFrom == l {
			named[l][0] = declare(up)
		} else {
			named[l][0] = named[upFrom][0]
		}
		if downFrom == l {
			named[l][1] = declare(down)
		} else {
			named[l][1] = named[downFrom][1]
		}
	}
	// add adds rate r to position q of row i of line l, first declaring the
	// line a row of its own if another line names row i.
	add := func(l, i, q int, r float64) {
		for other := range named {
			if other != l && (named[other][0] == named[l][i] || named[other][1] == named[l][i]) {
				named[l][i] = declare(slices.Clone(rows[named[l][i]*w:][:w]))
				break
			}
		}
		rows[named[l][i]*w+q] += r
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
		l, q := from/w, from%w
		switch {
		case l != to/w:
			jumps[l] = append(jumps[l], jump{to / w, r})
		case to < from:
			add(l, 1, q, r)
		case q+1 < w:
			add(l, 0, q, r)
		case q > 0:
			add(l, 1, q, r)
		}
	}
	return Chain{n, w, rows, func(l int, emit func(int, float64)) (int, int) {
		for _, j := range jumps[l] {
			emit(j.to, j.rate)
		}
		return named[l][0], named[l][1]
	}}
}

// readBackError checks that Lines(g) reads back c, from which g was built:
// every line's rates up and down bit for bit, and its jumps of a positive
// rate into other lines, ordered stably by target line.
func readBackError(g *Generator, c Chain) error {
	type jump struct {
		to   int
		rate float64
	}
	read := Lines(g)
	for l := range c.States / c.Width {
		var want, got []jump
		up, down := c.Line(l, func(to int, rate float64) {
			if rate != 0 && to != l {
				want = append(want, jump{to, rate})
			}
		})
		slices.SortStableFunc(want, func(a, b jump) int { return a.to - b.to })
		gotUp, gotDown := read.Line(l, func(to int, rate float64) { got = append(got, jump{to, rate}) })
		for q := range c.Width {
			u, d, gu, gd := c.row(up)[q], c.row(down)[q], read.row(gotUp)[q], read.row(gotDown)[q]
			if math.Float64bits(gu) != math.Float64bits(u) || math.Float64bits(gd) != math.Float64bits(d) {
				return fmt.Errorf("line %d, position %d: read back up %v, down %v; described %v and %v", l, q, gu, gd, u, d)
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("line %d: read back jumps %v, described %v", l, got, want)
		}
	}
	return nil
}

// gthSolve returns the stationary distribution of the irreducible chain c of
// one state per line, from its jumps, by the Grassmann–Taksar–Heyman
// elimination on the dense rate matrix. GTH forms every pivot as a sum of
// off-diagonal rates rather than from the diagonal, so it subtracts nothing
// and is accurate to a few ulps per state on the small chains of
// FuzzLineSweep, in O(n³) time.
func gthSolve(c Chain) []float64 {
	n := c.States / c.Width
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		c.Line(i, func(to int, rate float64) {
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
			if a[i][k] == 0 {
				continue
			}
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

// gthLineMasses returns the stationary distribution of the line chain of c:
// the exact mass of every line, by gthSolve on its jumps alone. The line
// index is itself a Markov chain, as every state of a line jumps to the
// same lines at the same rates.
func gthLineMasses(c Chain) []float64 {
	return gthSolve(Chain{States: c.States / c.Width, Width: 1, Line: c.Line})
}

// FuzzLineSweep checks relaxed line Gauss–Seidel on random line-described
// chains. The same chain with one state per line (Points) gives the
// reference: its build must count the same transitions as the line build,
// and the GTH solve of the rate matrix read back from it gives the exact
// distribution. Given the exact line masses from that distribution, the line
// solve must converge to it. Both builds' sweep orders must be colourings:
// every line listed once, and no jump between two lines of one colour. And
// both builds, whose lines share declared rows, must read back their
// descriptions exactly.
func FuzzLineSweep(f *testing.F) {
	// One line holding every state: a closed birth–death line.
	f.Add([]byte{7, 0, 1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6, 70, 7, 80, 9,
		0, 3, 7, 5, 2, 200})
	// Every state its own line: the line masses are the solution.
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 3, 50, 7, 90, 1,
		4, 2, 5, 30, 6, 0, 9, 100})
	// A directed ring of four lines of two states. Coloured with the least
	// colour free of its neighbours', it takes two colours, and the sweep
	// then trades the values of two pairs of lines every time.
	f.Add([]byte{1, 3, 5, 0, 0, 9, 5, 0, 0, 9, 5, 0, 0, 9, 5, 0, 0, 9, 0, 0, 0, 16})
	// Three lines of five states, with extra steps and jumps, whose sweeps
	// relaxed by ω = 1.95 do not contract.
	f.Add([]byte("|B\xf8\xbf\xc9X\xa8\x9a\xeeP\xad\x0eE>k1\xfc<\u05b2f\x05\x885B\xd4\u0437\u0085\x02\v\xa7\x10\xed\xeb\x93{L>\xbc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzChain(data)
		points, err := Points(c).Build()
		if err != nil {
			t.Fatal(err)
		}
		lines, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := SweepOrderError(points, Points(c).Line); err != nil {
			t.Fatalf("width 1: %v", err)
		}
		if err := SweepOrderError(lines, c.Line); err != nil {
			t.Fatalf("width %d: %v", c.Width, err)
		}
		if err := readBackError(points, Points(c)); err != nil {
			t.Fatalf("width 1: %v", err)
		}
		if err := readBackError(lines, c); err != nil {
			t.Fatalf("width %d: %v", c.Width, err)
		}
		if lines.NumTransitions() != points.NumTransitions() {
			t.Fatalf("%d transitions with lines of %d, %d with one state per line",
				lines.NumTransitions(), c.Width, points.NumTransitions())
		}
		exact := gthSolve(Lines(points))
		mass := gthLineMasses(c)
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
