// Package ctmc provides infrastructure for finite continuous-time Markov
// chains: sparse infinitesimal generator matrices built from a transition
// enumeration callback, and an iterative steady-state solver, line
// Gauss–Seidel. The GPRS Markov model of the paper is solved through this
// package.
//
// The solver can optionally be given an exact aggregate: a partition of the
// states into blocks together with the stationary probability of each
// block, known in closed form when the block process is lumpable. After
// every sweep the iterate is rescaled so that each block carries its exact
// mass (aggregation–disaggregation in the sense of Takahashi and
// Koury–McAllister–Stewart, with the aggregate solve replaced by the closed
// form). The sweeps then only have to resolve the distribution within each
// block, which removes the slow modes of the block process from the
// iteration. Gauss–Seidel does that within-block work as the block
// Gauss–Seidel half of the scheme: each maximal run of consecutive states in
// one block is a line whose balance equations a sweep solves exactly (see
// SolveOptions.Aggregation).
//
// The generator is stored column-oriented (incoming transitions per state)
// because the solver needs, for a state j, the inflow sum_i pi_i * q_ij and
// the total outflow rate d_j.
package ctmc

import (
	"errors"
	"fmt"
	"math"
)

// Common errors returned by the package.
var (
	// ErrInvalidTransition is returned when a transition callback emits an
	// out-of-range target state or a non-finite or negative rate.
	ErrInvalidTransition = errors.New("ctmc: invalid transition")
	// ErrNotIrreducible is returned when the chain has a state with no
	// outgoing transitions (and therefore cannot be irreducible) or when a
	// solver detects a zero steady-state vector.
	ErrNotIrreducible = errors.New("ctmc: chain is not irreducible")
	// ErrInvalidArgument is returned for out-of-range solver or builder
	// arguments.
	ErrInvalidArgument = errors.New("ctmc: invalid argument")
)

// TransitionFunc enumerates the outgoing transitions of a state. The
// implementation must call emit(to, rate) once per outgoing transition with a
// strictly positive rate; self-loops (to == state) are ignored. The function
// must be deterministic: it is called twice per state while building the
// generator (a counting pass and a fill pass).
type TransitionFunc func(state int, emit func(to int, rate float64))

// Generator is the sparse infinitesimal generator matrix Q of a finite CTMC,
// stored as incoming transitions per state plus the diagonal (total outflow
// rate per state).
type Generator struct {
	n int

	// Incoming transitions in compressed sparse column layout: for state j,
	// the sources are inSrc[inPtr[j]:inPtr[j+1]] with rates inRate[...].
	inPtr  []int64
	inSrc  []int32
	inRate []float64

	// outRate[i] is the total outgoing rate of state i (the negated diagonal
	// entry of Q).
	outRate []float64

	maxOutRate float64
	nnz        int64
}

// NewGenerator builds the generator matrix of a CTMC with numStates states
// from the transition enumeration callback. It returns an error if a
// transition is invalid or if some state has no outgoing transition (which
// would make the chain reducible).
func NewGenerator(numStates int, transitions TransitionFunc) (*Generator, error) {
	if numStates <= 0 {
		return nil, fmt.Errorf("%w: numStates = %d", ErrInvalidArgument, numStates)
	}
	if numStates > math.MaxInt32 {
		return nil, fmt.Errorf("%w: numStates = %d exceeds int32 indexing", ErrInvalidArgument, numStates)
	}
	if transitions == nil {
		return nil, fmt.Errorf("%w: nil transition function", ErrInvalidArgument)
	}

	g := &Generator{
		n:       numStates,
		inPtr:   make([]int64, numStates+1),
		outRate: make([]float64, numStates),
	}

	// Pass 1: count incoming transitions per target state into
	// inPtr[to+1] and accumulate outgoing rates. The emit callbacks of both
	// passes are bound once and read the current source state from the
	// shared loop variable, so building the generator allocates nothing per
	// state.
	var (
		emitErr error
		state   int
	)
	count := func(to int, rate float64) {
		if emitErr != nil {
			return
		}
		if to < 0 || to >= numStates {
			emitErr = fmt.Errorf("%w: state %d -> %d out of range", ErrInvalidTransition, state, to)
			return
		}
		if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			emitErr = fmt.Errorf("%w: state %d -> %d rate %v", ErrInvalidTransition, state, to, rate)
			return
		}
		if rate == 0 || to == state {
			return
		}
		g.inPtr[to+1]++
		g.outRate[state] += rate
	}
	for state = 0; state < numStates; state++ {
		transitions(state, count)
		if emitErr != nil {
			return nil, emitErr
		}
	}

	for s := 0; s < numStates; s++ {
		if g.outRate[s] <= 0 && numStates > 1 {
			return nil, fmt.Errorf("%w: state %d has no outgoing transitions", ErrNotIrreducible, s)
		}
		if g.outRate[s] > g.maxOutRate {
			g.maxOutRate = g.outRate[s]
		}
	}

	// Exclusive prefix sums turn the counts into column starts, shifted by
	// one: inPtr[j+1] is where column j begins.
	var total int64
	for j := 1; j <= numStates; j++ {
		count := g.inPtr[j]
		g.inPtr[j] = total
		total += count
	}
	g.nnz = total
	g.inSrc = make([]int32, total)
	g.inRate = make([]float64, total)

	// Pass 2: fill, with inPtr[to+1] as the fill cursor of column to. Once
	// the column is full it holds the column's end, which is where the
	// next column begins.
	fill := func(to int, rate float64) {
		if to < 0 || to >= numStates || rate <= 0 || to == state {
			return
		}
		pos := g.inPtr[to+1]
		g.inSrc[pos] = int32(state)
		g.inRate[pos] = rate
		g.inPtr[to+1]++
	}
	for state = 0; state < numStates; state++ {
		transitions(state, fill)
	}
	return g, nil
}

// NumStates returns the number of states of the chain.
func (g *Generator) NumStates() int { return g.n }

// NumTransitions returns the number of stored (off-diagonal, positive-rate)
// transitions.
func (g *Generator) NumTransitions() int64 { return g.nnz }

// Residual returns the infinity norm of pi*Q, i.e. max_j |inflow_j - pi_j d_j|.
// A steady-state vector has residual 0.
func (g *Generator) Residual(pi []float64) (float64, error) {
	if len(pi) != g.n {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrInvalidArgument, len(pi), g.n)
	}
	var worst float64
	for j := 0; j < g.n; j++ {
		start, end := g.inPtr[j], g.inPtr[j+1]
		var sum float64
		for p := start; p < end; p++ {
			sum += pi[g.inSrc[p]] * g.inRate[p]
		}
		r := math.Abs(sum - pi[j]*g.outRate[j])
		if r > worst {
			worst = r
		}
	}
	return worst, nil
}
