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
	// GaussSeidel updates states in place using the newest available values.
	// It is the default because it typically converges in far fewer sweeps
	// than the other methods on the quasi-birth-death structure of the GPRS
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
	// CheckEvery is the number of sweeps between convergence checks; the zero
	// value means 10.
	CheckEvery int
	// Relaxation is the successive over-relaxation factor applied to the
	// Gauss–Seidel update (pi_j <- (1-w) pi_j + w inflow_j/d_j). The zero
	// value means 1 (plain Gauss–Seidel); values in (1, 2) accelerate
	// convergence on the stiff GPRS chain, values above 2 are rejected.
	Relaxation float64
	// Parallel enables multi-goroutine sweeps for the Jacobi and Power
	// methods (Gauss–Seidel is inherently sequential). The zero value uses a
	// single goroutine.
	Parallel bool
	// Workers is the number of goroutines used when Parallel is set; the zero
	// value means runtime.NumCPU().
	Workers int
	// Initial optionally provides a starting distribution of length
	// NumStates; it does not need to be normalized. If nil, the uniform
	// distribution is used.
	Initial []float64
	// Aggregation optionally provides the exact stationary mass of a
	// partition of the states. The starting vector and every sweep's iterate
	// are rescaled block by block to those masses, in place of the plain
	// normalization. It applies to every method; uniformized power
	// iteration already preserves the marginal of a lumpable partition and
	// gains nothing from it. If nil, no aggregation is used.
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
	if o.CheckEvery <= 0 {
		o.CheckEvery = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Relaxation == 0 {
		o.Relaxation = 1
	}
	return o
}

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
	// MaxIterations was reached.
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
	if agg := o.Aggregation; agg != nil {
		if err := agg.validate(g.n); err != nil {
			return nil, err
		}
		factor := make([]float64, len(agg.Mass))
		norm = func(v []float64) error { return agg.rescale(v, factor) }
	}
	if g.n == 1 {
		return &Solution{Pi: []float64{1}, Converged: true, Method: o.Method}, nil
	}

	pi := make([]float64, g.n)
	if o.Initial != nil {
		if len(o.Initial) != g.n {
			return nil, fmt.Errorf("%w: initial vector length %d, want %d", ErrInvalidArgument, len(o.Initial), g.n)
		}
		copy(pi, o.Initial)
	} else {
		for i := range pi {
			pi[i] = 1 / float64(g.n)
		}
	}
	if err := norm(pi); err != nil {
		return nil, err
	}

	if o.Relaxation < 0 || o.Relaxation >= 2 {
		return nil, fmt.Errorf("%w: relaxation factor %v outside (0, 2)", ErrInvalidArgument, o.Relaxation)
	}

	var (
		sol *Solution
		err error
	)
	switch o.Method {
	case GaussSeidel:
		sol, err = g.solveGaussSeidel(pi, o, norm)
	case Jacobi:
		sol, err = g.solveJacobiOrPower(pi, o, norm, false)
	case Power:
		sol, err = g.solveJacobiOrPower(pi, o, norm, true)
	default:
		return nil, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, o.Method)
	}
	if err != nil {
		return nil, err
	}
	sol.Method = o.Method
	sol.Residual, _ = g.Residual(sol.Pi)
	return sol, nil
}

// solveGaussSeidel iterates pi_j <- (1-w) pi_j + w inflow_j / d_j in place
// (plain Gauss–Seidel for w = 1, SOR otherwise), restoring the iterate's
// invariants with norm after every sweep.
func (g *Generator) solveGaussSeidel(pi []float64, o SolveOptions, norm func([]float64) error) (*Solution, error) {
	prev := make([]float64, g.n)
	sol := &Solution{Pi: pi}
	w := o.Relaxation
	for iter := 1; iter <= o.MaxIterations; iter++ {
		if w == 1 {
			for j := 0; j < g.n; j++ {
				start, end := g.inPtr[j], g.inPtr[j+1]
				var sum float64
				for p := start; p < end; p++ {
					sum += pi[g.inSrc[p]] * g.inRate[p]
				}
				pi[j] = sum / g.outRate[j]
			}
		} else {
			for j := 0; j < g.n; j++ {
				start, end := g.inPtr[j], g.inPtr[j+1]
				var sum float64
				for p := start; p < end; p++ {
					sum += pi[g.inSrc[p]] * g.inRate[p]
				}
				v := (1-w)*pi[j] + w*sum/g.outRate[j]
				if v < 0 {
					v = 0
				}
				pi[j] = v
			}
		}
		if err := norm(pi); err != nil {
			return nil, err
		}
		sol.Iterations = iter
		if iter%o.CheckEvery == 0 || iter == o.MaxIterations {
			delta := relativeL1Change(prev, pi)
			sol.Delta = delta
			copy(prev, pi)
			if delta <= o.Tolerance && iter > o.CheckEvery {
				sol.Converged = true
				return sol, nil
			}
		}
	}
	return sol, nil
}

// solveJacobiOrPower iterates with a separate old/new vector. With power=true
// the update is the uniformized power step
// pi_j <- pi_j + (inflow_j - pi_j d_j)/Lambda; otherwise the Jacobi step
// pi_j <- inflow_j / d_j is used. norm restores the iterate's invariants
// after every sweep.
func (g *Generator) solveJacobiOrPower(pi []float64, o SolveOptions, norm func([]float64) error, power bool) (*Solution, error) {
	next := make([]float64, g.n)
	prev := make([]float64, g.n)
	sol := &Solution{}
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
	if o.Parallel && o.Workers > 1 {
		workers = o.Workers
		if workers > g.n {
			workers = g.n
		}
	}

	for iter := 1; iter <= o.MaxIterations; iter++ {
		if workers == 1 {
			sweep(0, g.n, pi, next)
		} else {
			var wg sync.WaitGroup
			chunk := (g.n + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > g.n {
					hi = g.n
				}
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
		if err := norm(next); err != nil {
			return nil, err
		}
		pi, next = next, pi
		sol.Iterations = iter
		if iter%o.CheckEvery == 0 || iter == o.MaxIterations {
			delta := relativeL1Change(prev, pi)
			sol.Delta = delta
			copy(prev, pi)
			if delta <= o.Tolerance && iter > o.CheckEvery {
				sol.Converged = true
				break
			}
		}
	}
	sol.Pi = pi
	return sol, nil
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

// Expectation returns sum_s pi[s] * value(s), a convenience for computing
// performance measures from a steady-state vector.
func Expectation(pi []float64, value func(state int) float64) float64 {
	var sum float64
	for s, p := range pi {
		if p == 0 {
			continue
		}
		sum += p * value(s)
	}
	return sum
}
