package ctmc

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Method selects the steady-state iteration scheme.
type Method int

const (
	// GaussSeidel updates states in place using the newest available values,
	// one line of an aggregation block at a time (see SolveOptions). It is
	// the default because it typically converges in far fewer sweeps than
	// the other methods on the quasi-birth-death structure of the GPRS
	// model.
	GaussSeidel Method = iota + 1
	// Jacobi updates all states from the previous iterate with a damping
	// factor of 1/2 (undamped Jacobi oscillates with period two on
	// birth-death structures); it is provided as a reference method and for
	// the solver ablation benchmark.
	Jacobi
	// Power applies uniformized power iteration pi <- pi (I + Q/Lambda).
	// It is embarrassingly parallel and used for very large state spaces.
	Power
)

// String returns the solver name.
func (m Method) String() string {
	switch m {
	case GaussSeidel:
		return "gauss-seidel"
	case Jacobi:
		return "jacobi"
	case Power:
		return "power"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SolveOptions controls the steady-state computation.
type SolveOptions struct {
	// Method selects the iteration scheme; the zero value means GaussSeidel.
	Method Method
	// Tolerance is the convergence threshold on the relative L1 change of the
	// iterate between convergence checks; the zero value means 1e-10.
	Tolerance float64
	// MaxIterations bounds the number of sweeps; the zero value means 20000.
	MaxIterations int
	// Parallel enables multi-goroutine sweeps for the Jacobi and Power
	// methods (Gauss–Seidel is inherently sequential), one goroutine per
	// CPU. The zero value uses a single goroutine.
	Parallel bool
	// Aggregation optionally provides the exact stationary mass of a
	// partition of the states. The uniform starting vector and every
	// sweep's iterate are rescaled block by block to those masses, in place
	// of the plain normalization. It applies to every method; uniformized
	// power iteration already preserves the marginal of a lumpable
	// partition and gains nothing from it. Under Gauss–Seidel, each maximal
	// run of consecutive states in one block is a line, solved exactly per
	// sweep given the newest inflow from outside it; the solve is exact when
	// a line's states are joined inside it only to their neighbours, and a
	// one-state line is the point update. If nil, no aggregation is used and
	// every line is one state.
	Aggregation *Aggregation
}

// Aggregation is an exact aggregate of a chain: a partition of the states
// into blocks and the stationary probability of each block. It is only
// correct when the blocks form a lumpable (autonomous) process whose
// stationary distribution is Mass; the solver cannot check that premise.
type Aggregation struct {
	// Block maps every state to its block, an index into Mass.
	Block []int32
	// Mass is the stationary probability of each block. The entries must be
	// non-negative and sum to 1; a block of mass 0 is zeroed by every
	// rescale.
	Mass []float64
}

// massSumTolerance is how far the block masses of an Aggregation may sum
// from 1.
const massSumTolerance = 1e-9

// validate checks the aggregation against a chain of n states.
func (a *Aggregation) validate(n int) error {
	if len(a.Block) != n {
		return fmt.Errorf("%w: aggregation maps %d states, want %d", ErrInvalidArgument, len(a.Block), n)
	}
	var sum float64
	for b, m := range a.Mass {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("%w: block %d has mass %v", ErrInvalidArgument, b, m)
		}
		sum += m
	}
	if math.Abs(sum-1) > massSumTolerance {
		return fmt.Errorf("%w: block masses sum to %v, want 1", ErrInvalidArgument, sum)
	}
	for i, b := range a.Block {
		if b < 0 || int(b) >= len(a.Mass) {
			return fmt.Errorf("%w: state %d in block %d, want [0, %d)", ErrInvalidArgument, i, b, len(a.Mass))
		}
	}
	return nil
}

// rescale scales v in place so that every block sums to its mass, using
// factor (one entry per block) as scratch. A block of mass 0 is zeroed; a
// block whose current sum is 0 is left as it is, and the vector is then
// renormalized to sum to 1. Like normalize, it clamps tiny negative rounding
// artefacts to zero and returns ErrNotIrreducible for a clearly negative
// entry or a vector summing to zero.
func (a *Aggregation) rescale(v, factor []float64) error {
	for b := range factor {
		factor[b] = 0
	}
	var total float64
	for i, x := range v {
		if x < 0 {
			if x < -1e-12 {
				return fmt.Errorf("%w: negative probability %v at state %d", ErrNotIrreducible, x, i)
			}
			v[i] = 0
			continue
		}
		factor[a.Block[i]] += x
		total += x
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("%w: probability mass %v", ErrNotIrreducible, total)
	}
	unmatched := false
	for b, sum := range factor {
		switch mass := a.Mass[b]; {
		case mass == 0:
			factor[b] = 0
		case sum == 0:
			factor[b] = 1
			unmatched = true
		default:
			factor[b] = mass / sum
		}
	}
	for i := range v {
		v[i] *= factor[a.Block[i]]
	}
	if unmatched {
		return normalize(v)
	}
	return nil
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Method == 0 {
		o.Method = GaussSeidel
	}
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
	// Method is the iteration scheme that produced the solution.
	Method Method
}

// SteadyState computes the stationary distribution pi of the chain, i.e. the
// solution of pi*Q = 0 with sum(pi) = 1.
func (g *Generator) SteadyState(opts SolveOptions) (*Solution, error) {
	o := opts.withDefaults()
	// norm restores the invariants of an iterate after every sweep: a
	// probability vector, and with an aggregation, the exact block masses.
	norm := normalize
	var block []int32
	if agg := o.Aggregation; agg != nil {
		if err := agg.validate(g.n); err != nil {
			return nil, err
		}
		factor := make([]float64, len(agg.Mass))
		norm = func(v []float64) error { return agg.rescale(v, factor) }
		block = agg.Block
	}
	if g.n == 1 {
		return &Solution{Pi: []float64{1}, Converged: true, Method: o.Method}, nil
	}

	pi := make([]float64, g.n)
	for i := range pi {
		pi[i] = 1 / float64(g.n)
	}
	if err := norm(pi); err != nil {
		return nil, err
	}

	// step maps an iterate to the next one, before norm.
	var step func(pi []float64) []float64
	switch o.Method {
	case GaussSeidel:
		step = g.gaussSeidelStep(block)
	case Jacobi, Power:
		step = g.jacobiOrPowerStep(o, o.Method == Power)
	default:
		return nil, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, o.Method)
	}
	prev := make([]float64, g.n)
	sol := &Solution{Method: o.Method}
	for iter := 1; iter <= o.MaxIterations; iter++ {
		pi = step(pi)
		if err := norm(pi); err != nil {
			return nil, err
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

// closedLine is the share of a state's outflow below which the part not to
// its line neighbours counts as 0, so a closed line ends on a pivot of 0.
const closedLine = 1e-12

// lineEnd returns the end of the line that starts at state s: a maximal run
// of consecutive states in one block, or one state without an aggregation.
func lineEnd(block []int32, s, n int) int {
	e := s + 1
	for block != nil && e < n && block[e] == block[s] {
		e++
	}
	return e
}

// lineInflow scans the incoming transitions of state j, which lies in the
// line [s, e). It returns the inflow sum_i pi_i q_ij over every source i
// except j's neighbours in the line, and the rates lo = q_{j-1,j} and
// hi = q_{j+1,j} from those neighbours (0 for a neighbour outside the line).
func (g *Generator) lineInflow(pi []float64, j, s, e int) (sum, lo, hi float64) {
	for p := g.inPtr[j]; p < g.inPtr[j+1]; p++ {
		src, rate := int(g.inSrc[p]), g.inRate[p]
		switch {
		case src == j-1 && j > s:
			lo += rate
		case src == j+1 && j+1 < e:
			hi += rate
		default:
			sum += pi[src] * rate
		}
	}
	return sum, lo, hi
}

// gaussSeidelStep returns the line Gauss–Seidel sweep over the lines of
// block, which updates the iterate in place. It visits the lines in index
// order and solves the balance equations of each exactly, given the newest
// inflow from outside the line: d_q x_q - lo_q x_{q-1} - hi_q x_{q+1} =
// rhs_q, by a Thomas pass over the pivots of linePivots. A one-state line is
// the point update pi_j <- inflow_j / d_j. A closed line, which sends
// nothing out of itself, ends on a pivot of 0: its last state keeps its
// value, the rest are solved from it, and norm sets the line's mass.
func (g *Generator) gaussSeidelStep(block []int32) func([]float64) []float64 {
	invPivot, longest := g.linePivots(block)
	rhs, upper := make([]float64, longest), make([]float64, longest)
	return func(pi []float64) []float64 {
		for s := 0; s < g.n; {
			e := lineEnd(block, s, g.n)
			var r float64
			for j := s; j < e; j++ {
				sum, lo, hi := g.lineInflow(pi, j, s, e)
				r = (sum + lo*r) * invPivot[j]
				rhs[j-s], upper[j-s] = r, hi*invPivot[j]
			}
			x := pi[e-1]
			for j := e - 1; j >= s; j-- {
				if invPivot[j] != 0 {
					x = rhs[j-s] + upper[j-s]*x
				}
				pi[j] = x
			}
			s = e
		}
		return pi
	}
}

// linePivots returns the inverse modified pivot of every state (0 for a
// pivot of 0) and the longest line's length. With up_q and down_q the rates
// from q to q+1 and q-1 in its line and e_q = d_q - up_q - down_q, the pivot
// b_q = d_q - down_q up_{q-1} / b_{q-1} is summed as up_q + a_q with
// a_q = e_q + down_q a_{q-1} / b_{q-1}, as the difference loses a factor
// down/up of accuracy per state on a line with a strong drift.
func (g *Generator) linePivots(block []int32) ([]float64, int) {
	invPivot, longest := make([]float64, g.n), 0
	for s := 0; s < g.n; {
		e := lineEnd(block, s, g.n)
		longest = max(longest, e-s)
		// The scan of column q+1 yields up_q and down_{q+2}; its inflow sum
		// is unused, so any vector serves as the iterate.
		_, _, downNext := g.lineInflow(g.outRate, s, s, e)
		var down, a, inv float64
		for q := s; q < e; q++ {
			var up, downAfter float64
			if q+1 < e {
				_, up, downAfter = g.lineInflow(g.outRate, q+1, s, e)
			}
			rest := g.outRate[q] - up - down
			if rest < closedLine*g.outRate[q] {
				rest = 0
			}
			a = rest + down*a*inv
			inv = 0
			if pivot := up + a; pivot > 0 {
				inv = 1 / pivot
			}
			invPivot[q] = inv
			down, downNext = downNext, downAfter
		}
		s = e
	}
	return invPivot, longest
}

// jacobiOrPowerStep returns a sweep into a second vector, which it returns,
// swapping the vectors' roles. With power=true the update is the uniformized
// power step pi_j <- pi_j + (inflow_j - pi_j d_j)/Lambda; otherwise the
// Jacobi step pi_j <- inflow_j / d_j is used.
func (g *Generator) jacobiOrPowerStep(o SolveOptions, power bool) func([]float64) []float64 {
	next := make([]float64, g.n)
	// Uniformization constant slightly above the maximum outflow rate keeps
	// the DTMC aperiodic.
	lambda := g.maxOutRate * 1.02
	if lambda <= 0 {
		lambda = 1
	}

	sweep := func(lo, hi int, src, dst []float64) {
		for j := lo; j < hi; j++ {
			start, end := g.inPtr[j], g.inPtr[j+1]
			var sum float64
			for p := start; p < end; p++ {
				sum += src[g.inSrc[p]] * g.inRate[p]
			}
			if power {
				dst[j] = src[j] + (sum-src[j]*g.outRate[j])/lambda
			} else {
				// Damped Jacobi: average the fixed-point update with the
				// previous iterate to suppress period-2 oscillation.
				dst[j] = 0.5*src[j] + 0.5*sum/g.outRate[j]
			}
		}
	}

	workers := 1
	if o.Parallel {
		workers = min(runtime.NumCPU(), g.n)
	}

	return func(pi []float64) []float64 {
		if workers == 1 {
			sweep(0, g.n, pi, next)
		} else {
			var wg sync.WaitGroup
			chunk := (g.n + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo, hi := w*chunk, min((w+1)*chunk, g.n)
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					sweep(lo, hi, pi, next)
				}(lo, hi)
			}
			wg.Wait()
		}
		pi, next = next, pi
		return pi
	}
}

// normalize scales the vector to sum to 1 and clamps tiny negative rounding
// artefacts to zero. It returns ErrNotIrreducible if the vector sums to zero.
func normalize(v []float64) error {
	var sum float64
	for i, x := range v {
		if x < 0 {
			if x < -1e-12 {
				return fmt.Errorf("%w: negative probability %v at state %d", ErrNotIrreducible, x, i)
			}
			v[i] = 0
			continue
		}
		sum += x
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("%w: probability mass %v", ErrNotIrreducible, sum)
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
	return nil
}

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
