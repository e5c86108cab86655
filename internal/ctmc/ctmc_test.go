package ctmc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoStateChain builds the generator of a simple on/off chain with rates
// a (0->1) and b (1->0); its stationary distribution is (b, a)/(a+b).
func twoStateChain(t *testing.T, a, b float64) *Generator {
	t.Helper()
	g, err := NewGenerator(2, func(s int, emit func(int, float64)) {
		if s == 0 {
			emit(1, a)
		} else {
			emit(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mmckTransitions returns the transition function of an M/M/c/K queue with
// arrival rate lambda and service rate mu; state = number in system.
func mmckTransitions(lambda, mu float64, c, capacity int) TransitionFunc {
	return func(s int, emit func(int, float64)) {
		if s < capacity {
			emit(s+1, lambda)
		}
		if s > 0 {
			busy := s
			if busy > c {
				busy = c
			}
			emit(s-1, float64(busy)*mu)
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

func TestTwoStateChainAllMethods(t *testing.T) {
	const a, b = 0.3, 0.7
	g := twoStateChain(t, a, b)
	for _, m := range []Method{GaussSeidel, Jacobi, Power} {
		sol, err := g.SteadyState(SolveOptions{Method: m, Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !sol.Converged {
			t.Errorf("%v: did not converge", m)
		}
		if !almostEqual(sol.Pi[0], b/(a+b), 1e-8) || !almostEqual(sol.Pi[1], a/(a+b), 1e-8) {
			t.Errorf("%v: pi = %v, want [%v %v]", m, sol.Pi, b/(a+b), a/(a+b))
		}
		if sol.Residual > 1e-8 {
			t.Errorf("%v: residual = %v", m, sol.Residual)
		}
	}
}

func TestMMcKMatchesClosedForm(t *testing.T) {
	const (
		lambda   = 2.5
		mu       = 1.0
		c        = 3
		capacity = 15
	)
	g, err := NewGenerator(capacity+1, mmckTransitions(lambda, mu, c, capacity))
	if err != nil {
		t.Fatal(err)
	}
	want := mmckExact(lambda, mu, c, capacity)
	for _, m := range []Method{GaussSeidel, Jacobi, Power} {
		sol, err := g.SteadyState(SolveOptions{Method: m, Tolerance: 1e-13, MaxIterations: 200000})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for s := range want {
			if !almostEqual(sol.Pi[s], want[s], 1e-7) {
				t.Errorf("%v: pi[%d] = %v, want %v", m, s, sol.Pi[s], want[s])
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
	if len(g.outRate) != 2 || g.outRate[0] != 2 || g.outRate[1] != 5 {
		t.Errorf("out rates = %v, want [2 5]", g.outRate)
	}
	if g.maxOutRate != 5 {
		t.Errorf("maxOutRate = %v, want 5", g.maxOutRate)
	}
}

func TestGeneratorRejectsInvalidInput(t *testing.T) {
	if _, err := NewGenerator(0, func(int, func(int, float64)) {}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("zero states should be rejected")
	}
	if _, err := NewGenerator(2, nil); !errors.Is(err, ErrInvalidArgument) {
		t.Error("nil transition function should be rejected")
	}
	_, err := NewGenerator(2, func(s int, emit func(int, float64)) { emit(5, 1) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("out-of-range target: got %v", err)
	}
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) { emit(1-s, -1) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("negative rate: got %v", err)
	}
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) { emit(1-s, math.NaN()) })
	if !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("NaN rate: got %v", err)
	}
	// A state with no outgoing transitions cannot belong to an irreducible
	// chain.
	_, err = NewGenerator(2, func(s int, emit func(int, float64)) {
		if s == 0 {
			emit(1, 1)
		}
	})
	if !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("dangling state: got %v", err)
	}
}

func TestGeneratorIgnoresSelfLoopsAndZeroRates(t *testing.T) {
	g, err := NewGenerator(2, func(s int, emit func(int, float64)) {
		emit(s, 100) // self loop must be ignored
		emit(1-s, 0) // zero rate must be ignored
		emit(1-s, 1) // the real transition
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d, want 2", g.NumTransitions())
	}
	if g.outRate[0] != 1 {
		t.Errorf("self loops must not contribute to the outflow rate, got %v", g.outRate[0])
	}
}

func TestSingleStateChain(t *testing.T) {
	g, err := NewGenerator(1, func(int, func(int, float64)) {})
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

func TestUnknownMethodRejected(t *testing.T) {
	g := twoStateChain(t, 1, 1)
	if _, err := g.SteadyState(SolveOptions{Method: Method(42)}); !errors.Is(err, ErrInvalidArgument) {
		t.Error("unknown method should be rejected")
	}
}

func TestParallelPowerMatchesSequential(t *testing.T) {
	const n = 500
	// Random-ish birth-death chain with position-dependent rates.
	tf := func(s int, emit func(int, float64)) {
		if s < n-1 {
			emit(s+1, 1.0+float64(s%7))
		}
		if s > 0 {
			emit(s-1, 2.0+float64(s%5))
		}
	}
	g, err := NewGenerator(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-12, MaxIterations: 500000})
	if err != nil {
		t.Fatal(err)
	}
	par, err := g.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-12, MaxIterations: 500000, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if !almostEqual(seq.Pi[s], par.Pi[s], 1e-9) {
			t.Fatalf("parallel mismatch at state %d: %v vs %v", s, seq.Pi[s], par.Pi[s])
		}
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

func TestMethodString(t *testing.T) {
	if GaussSeidel.String() != "gauss-seidel" || Jacobi.String() != "jacobi" || Power.String() != "power" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should render something")
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
		tf := func(s int, emit func(int, float64)) {
			if s < n-1 {
				emit(s+1, birth)
			}
			if s > 0 {
				emit(s-1, death*float64(s))
			}
		}
		g, err := NewGenerator(n, tf)
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
	g, err := NewGenerator(50, mmckTransitions(3, 0.5, 4, 49))
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
	// The emit callbacks are bound once per pass, so the allocation count
	// of a build does not grow with the number of states.
	tf := mmckTransitions(3, 0.5, 4, 999)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewGenerator(1000, tf); err != nil {
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
		agg  Aggregation
	}{
		{"short block map", Aggregation{Block: []int32{0}, Mass: []float64{1}}},
		{"long block map", Aggregation{Block: []int32{0, 0, 0}, Mass: []float64{1}}},
		{"negative block", Aggregation{Block: []int32{0, -1}, Mass: []float64{0.5, 0.5}}},
		{"block past the masses", Aggregation{Block: []int32{0, 2}, Mass: []float64{0.5, 0.5}}},
		{"no masses", Aggregation{Block: []int32{0, 0}}},
		{"negative mass", Aggregation{Block: []int32{0, 1}, Mass: []float64{1.5, -0.5}}},
		{"NaN mass", Aggregation{Block: []int32{0, 1}, Mass: []float64{math.NaN(), 1}}},
		{"infinite mass", Aggregation{Block: []int32{0, 1}, Mass: []float64{math.Inf(1), 0}}},
		{"masses sum below 1", Aggregation{Block: []int32{0, 1}, Mass: []float64{0.25, 0.25}}},
		{"masses sum above 1", Aggregation{Block: []int32{0, 1}, Mass: []float64{0.75, 0.75}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []Method{GaussSeidel, Jacobi, Power} {
				_, err := g.SteadyState(SolveOptions{Method: m, Aggregation: &tc.agg})
				if !errors.Is(err, ErrInvalidArgument) {
					t.Errorf("%v: got %v, want ErrInvalidArgument", m, err)
				}
			}
		})
	}
}

func TestAggregationRescale(t *testing.T) {
	agg := &Aggregation{Block: []int32{0, 0, 1, 1, 2}, Mass: []float64{0.6, 0.4, 0}}
	factor := make([]float64, len(agg.Mass))

	v := []float64{1, 3, 2, 2, 7}
	if err := agg.rescale(v, factor); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.15, 0.45, 0.2, 0.2, 0}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-15) {
			t.Errorf("rescaled v = %v, want %v", v, want)
			break
		}
	}

	// Block 1 holds no mass yet: it is left at zero rather than divided by
	// zero, and the vector is renormalized.
	v = []float64{1, 3, 0, 0, 7}
	if err := agg.rescale(v, factor); err != nil {
		t.Fatal(err)
	}
	want = []float64{0.25, 0.75, 0, 0, 0}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-15) || math.IsNaN(v[i]) {
			t.Errorf("rescaled v = %v, want %v", v, want)
			break
		}
	}

	if err := agg.rescale([]float64{0, 0, 0, 0, 0}, factor); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("zero vector: got %v, want ErrNotIrreducible", err)
	}
	if err := agg.rescale([]float64{1, -1, 0, 0, 0}, factor); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("negative entry: got %v, want ErrNotIrreducible", err)
	}
}

// slowFastChain is a chain on (s, f) in {0..slow} × {0..fast}, indexed
// s·(fast+1)+f. The slow coordinate s is an autonomous birth–death process
// with rates far below those of the fast coordinate f, whose rates depend on
// s. It returns the transition function and the exact marginal of s, which
// is the aggregate of the blocks s.
func slowFastChain(slow, fast int) (TransitionFunc, []float64) {
	const birth, death = 0.02, 0.01
	tf := func(state int, emit func(int, float64)) {
		s, f := state/(fast+1), state%(fast+1)
		if s < slow {
			emit(state+fast+1, birth)
		}
		if s > 0 {
			emit(state-fast-1, death*float64(s))
		}
		if f < fast {
			emit(state+1, 1+float64(s))
		}
		if f > 0 {
			emit(state-1, 2.5)
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
	return tf, mass
}

func TestAggregationMatchesPlainSolveInFewerSweeps(t *testing.T) {
	const slow, fast = 8, 12
	tf, mass := slowFastChain(slow, fast)
	g, err := NewGenerator((slow+1)*(fast+1), tf)
	if err != nil {
		t.Fatal(err)
	}
	agg := &Aggregation{Block: make([]int32, g.NumStates()), Mass: mass}
	for i := range agg.Block {
		agg.Block[i] = int32(i / (fast + 1))
	}
	for name, opts := range map[string]SolveOptions{
		"gauss-seidel": {Method: GaussSeidel},
		"jacobi":       {Method: Jacobi},
	} {
		opts.Tolerance, opts.MaxIterations = 1e-12, 1000000
		plain, err := g.SteadyState(opts)
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		opts.Aggregation = agg
		aggregated, err := g.SteadyState(opts)
		if err != nil {
			t.Fatalf("%s aggregated: %v", name, err)
		}
		if !plain.Converged || !aggregated.Converged {
			t.Fatalf("%s: converged plain=%v aggregated=%v", name, plain.Converged, aggregated.Converged)
		}
		for i := range plain.Pi {
			if !almostEqual(plain.Pi[i], aggregated.Pi[i], 1e-9) {
				t.Fatalf("%s: pi[%d] plain %v, aggregated %v", name, i, plain.Pi[i], aggregated.Pi[i])
			}
		}
		if aggregated.Iterations >= plain.Iterations {
			t.Errorf("%s: aggregated solve took %d sweeps, plain %d", name, aggregated.Iterations, plain.Iterations)
		}
		t.Logf("%s: %d sweeps plain, %d aggregated", name, plain.Iterations, aggregated.Iterations)
	}
}

func TestClosedLineSolvesToClosedForm(t *testing.T) {
	// A birth–death chain given as one block of mass 1 is one closed line:
	// nothing leaves it, so its last pivot is 0. The sweep keeps the last
	// state's value, solves the rest from it, and the rescale sets the mass.
	const lambda, mu, c, capacity = 2.5, 1.0, 3, 15
	g, err := NewGenerator(capacity+1, mmckTransitions(lambda, mu, c, capacity))
	if err != nil {
		t.Fatal(err)
	}
	agg := &Aggregation{Block: make([]int32, g.NumStates()), Mass: []float64{1}}
	sol, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, Aggregation: agg})
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

// TestStalledSolveIsNotConverged pins a chain on which line Gauss–Seidel
// stalls: the chain is not lumpable into the given blocks, and the rescaled
// line sweeps settle on a wrong vector. The iterate stops changing (Delta
// 1e-10 after ~1,170 sweeps) while pi*Q is still far from 0. Such a solve
// must not report Converged, while Jacobi and Power reach the plain solve's
// distribution on the same input.
func TestStalledSolveIsNotConverged(t *testing.T) {
	edges := []struct {
		from, to int
		rate     float64
	}{
		{0, 1, 7}, {1, 2, 9}, {2, 3, 1}, {2, 5, 9}, {3, 4, 9}, {4, 5, 4}, {4, 9, 17},
		{5, 6, 1}, {6, 2, 5}, {6, 7, 3}, {7, 8, 5}, {8, 9, 1}, {9, 0, 7}, {9, 7, 6},
	}
	g, err := NewGenerator(10, func(s int, emit func(int, float64)) {
		for _, e := range edges {
			if e.from == s {
				emit(e.to, e.rate)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 1000000})
	if err != nil || !plain.Converged {
		t.Fatalf("plain solve: %v", err)
	}
	block := []int32{0, 0, 1, 1, 1, 1, 2, 2, 3, 4}
	mass := make([]float64, 5)
	for i, p := range plain.Pi {
		mass[block[i]] += p
	}
	agg := &Aggregation{Block: block, Mass: mass}

	stalled, err := g.SteadyState(SolveOptions{Aggregation: agg})
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Converged {
		t.Errorf("Gauss–Seidel reports convergence after %d sweeps with Delta %v but residual %v",
			stalled.Iterations, stalled.Delta, stalled.Residual)
	}
	for _, method := range []Method{Jacobi, Power} {
		sol, err := g.SteadyState(SolveOptions{Method: method, Aggregation: agg, MaxIterations: 1000000})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged {
			t.Errorf("%v: not converged after %d sweeps, residual %v", method, sol.Iterations, sol.Residual)
		}
		for i := range plain.Pi {
			if !almostEqual(sol.Pi[i], plain.Pi[i], 1e-6) {
				t.Errorf("%v: pi[%d] = %v, plain %v", method, i, sol.Pi[i], plain.Pi[i])
			}
		}
	}
}

// fuzzChain decodes fuzz bytes into a small irreducible chain and a split of
// its states into contiguous blocks, meeting the two premises of a line
// solve under an Aggregation that the GPRS model meets: inside a block,
// transitions join neighbouring states only, so each block is one
// birth–death line; and the chain is lumpable across blocks, as every state
// of a block sends the same total rate into each other block.
//
// The first byte sets the number of states n (2..40). The next n-1 say, by
// their low bit, whether a new block starts at states 1..n-1. The next 2n
// give the rates from each state one step up and one step down in its
// block, where there is such a step; the next one per block, the rate from
// each of its states to the next block. Every following triple
// (from, to, rate) adds a transition: inside a block, one step from from
// towards to; into another block, from every state of from's block. Missing
// bytes read as 0, and every rate lies in [1/16, 16].
func fuzzChain(data []byte) (int, TransitionFunc, []int32) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rate := func(b byte) float64 { return (1 + float64(b)) / 16 }
	n := 2 + int(next()%39)
	block := make([]int32, n)
	starts := []int{0}
	for i := 1; i < n; i++ {
		block[i] = block[i-1]
		if next()&1 == 1 {
			block[i]++
			starts = append(starts, i)
		}
	}
	starts = append(starts, n)
	// step returns the neighbour of i in its block towards to, or the other
	// neighbour at the block's edge (i itself in a one-state block).
	step := func(i, to int) int {
		lo, hi := starts[block[i]], starts[block[i]+1]-1
		switch {
		case lo == hi:
			return i
		case i == hi || (to < i && i > lo):
			return i - 1
		default:
			return i + 1
		}
	}
	// shift returns the state d places after i within i's block, cyclically.
	shift := func(i, d int) int {
		lo, size := starts[block[i]], starts[block[i]+1]-starts[block[i]]
		return lo + ((i-lo+d)%size+size)%size
	}
	type edge struct {
		to   int
		rate float64
	}
	out := make([][]edge, n)
	for i := range out {
		up, down := rate(next()), rate(next())
		if i+1 < starts[block[i]+1] {
			out[i] = append(out[i], edge{i + 1, up})
		}
		if i > starts[block[i]] {
			out[i] = append(out[i], edge{i - 1, down})
		}
	}
	blocks := len(starts) - 1
	for b := 0; b < blocks; b++ {
		r, first := rate(next()), starts[(b+1)%blocks]
		for i := starts[b]; i < starts[b+1]; i++ {
			out[i] = append(out[i], edge{shift(first, i-starts[b]), r})
		}
	}
	for len(data) >= 3 {
		from, to, r := int(next())%n, int(next())%n, rate(next())
		if block[from] == block[to] {
			out[from] = append(out[from], edge{step(from, to), r})
			continue
		}
		for i := starts[block[from]]; i < starts[block[from]+1]; i++ {
			out[i] = append(out[i], edge{shift(to, i-from), r})
		}
	}
	return n, func(s int, emit func(int, float64)) {
		for _, e := range out[s] {
			emit(e.to, e.rate)
		}
	}, block
}

// FuzzLineSweep checks line Gauss–Seidel on random chains and random
// contiguous blocks: given the exact block masses, taken from a plain solve,
// it must converge to the plain solve's distribution.
func FuzzLineSweep(f *testing.F) {
	// One block holding every state: a closed birth–death line.
	f.Add([]byte{10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6, 70, 7, 80, 8, 90, 9, 100, 10, 110, 11, 120, 12, 130,
		0, 3, 7, 40, 9, 2, 200})
	// Every state its own block: point Gauss–Seidel.
	f.Add([]byte{6, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		200, 3, 50, 7, 90, 1, 4, 2, 5, 30, 6, 0, 9, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, tf, block := fuzzChain(data)
		g, err := NewGenerator(n, tf)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 1000000})
		if err != nil || !plain.Converged {
			t.Fatalf("plain solve: %v, converged %v", err, plain != nil && plain.Converged)
		}
		mass := make([]float64, block[n-1]+1)
		for i, p := range plain.Pi {
			mass[block[i]] += p
		}
		lines, err := g.SteadyState(SolveOptions{Tolerance: 1e-13, MaxIterations: 1000000, Aggregation: &Aggregation{Block: block, Mass: mass}})
		if err != nil {
			t.Fatalf("line solve: %v", err)
		}
		if !lines.Converged {
			t.Fatalf("line solve did not converge in %d sweeps", lines.Iterations)
		}
		for i := range plain.Pi {
			if !almostEqual(lines.Pi[i], plain.Pi[i], 1e-8) {
				t.Fatalf("pi[%d]: line solve %v, plain %v", i, lines.Pi[i], plain.Pi[i])
			}
		}
	})
}
