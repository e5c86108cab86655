package core

import (
	"errors"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/erlang"
	"repro/internal/traffic"
)

// Model is the GPRS Markov model of one cell, ready to be solved. A Model is
// immutable after construction and safe for concurrent use by multiple
// goroutines (Solve does not mutate it).
type Model struct {
	cfg   Config
	rates Rates
	space StateSpace

	// Balanced handover flows (Eqs. 4-5).
	gsmBalance  erlang.HandoverBalance
	gprsBalance erlang.HandoverBalance

	// Effective arrival and departure rates including handover traffic.
	gsmArrival    float64 // lambda_GSM + lambda_h,GSM
	gsmDeparture  float64 // mu_GSM + mu_h,GSM (per call)
	gprsArrival   float64 // lambda_GPRS + lambda_h,GPRS
	gprsDeparture float64 // mu_GPRS + mu_h,GPRS (per session)

	// Threshold eta*K above which the packet arrival rate is limited to the
	// service rate (TCP flow-control approximation).
	flowControlLimit float64

	// aggregation is the exact product-form marginal of the (n, m, r)
	// lines, the line masses Solve gives the solver unless the caller
	// provides its own.
	aggregation *ctmc.Aggregation
}

// New validates the configuration, balances the handover flows and returns a
// model ready for steady-state solution.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rates := cfg.DeriveRates()

	tol := cfg.HandoverTolerance
	maxIter := cfg.HandoverMaxIterations
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 10000
	}

	gsmBalance, err := erlang.BalanceHandover(
		rates.NewGSMCallRate, rates.GSMServiceRate, rates.GSMHandoverRate,
		cfg.Channels.GSMChannels(), tol, maxIter)
	if err != nil {
		return nil, fmt.Errorf("balance GSM handover flow: %w", err)
	}
	gprsBalance, err := erlang.BalanceHandover(
		rates.NewGPRSSessionRate, rates.GPRSServiceRate, rates.GPRSHandoverRate,
		cfg.MaxSessions, tol, maxIter)
	if err != nil {
		return nil, fmt.Errorf("balance GPRS handover flow: %w", err)
	}

	m := &Model{
		cfg:              cfg,
		rates:            rates,
		space:            NewStateSpace(cfg.Channels.GSMChannels(), cfg.BufferSize, cfg.MaxSessions),
		gsmBalance:       gsmBalance,
		gprsBalance:      gprsBalance,
		gsmArrival:       rates.NewGSMCallRate + gsmBalance.HandoverRate,
		gsmDeparture:     rates.GSMServiceRate + rates.GSMHandoverRate,
		gprsArrival:      rates.NewGPRSSessionRate + gprsBalance.HandoverRate,
		gprsDeparture:    rates.GPRSServiceRate + rates.GPRSHandoverRate,
		flowControlLimit: cfg.FlowControlThreshold * float64(cfg.BufferSize),
	}
	if m.aggregation, err = m.productFormAggregation(); err != nil {
		return nil, fmt.Errorf("product-form marginal: %w", err)
	}
	return m, nil
}

// Rates returns the primitive rates derived from the configuration.
func (m *Model) Rates() Rates { return m.rates }

// lines returns the rate rows and the description of the model's (n, m, r)
// lines (Table 1 of the paper) for ctmc.NewGenerator. Every transition but
// packet arrival (v) and service (vi) keeps the buffer level k at a rate
// independent of k, so it is a jump between lines; (v) and (vi) step up and
// down the line. Their rates depend only on n and the m − r sessions in the
// on state, so the rows come in a block per n: the service rates (vi) of n
// GSM calls, then the offered packet rates (v) of n calls and each number
// of on sessions from 0 to M.
func (m *Model) lines() ([]float64, ctmc.LineFunc) {
	var (
		space = m.space
		width = space.BufferSize() + 1
		nGSM  = space.GSMChannels()
		maxM  = space.MaxSessions()
		ipp   = m.rates.IPP
		pOn   = ipp.OnProbability()
		pOff  = ipp.OffProbability()
		block = maxM + 2
	)
	// (v) Data packet arrivals, while the buffer is not full (the offered
	// rate in full-buffer states contributes to the loss probability but
	// causes no state change), and (vi) data packet service over
	// min(N-n, 8k) PDCHs. The m − r sessions in the on state offer their
	// rate at every buffer level k up to the flow-control threshold ηK, and
	// at most the service rate above it (the TCP flow-control
	// approximation). service[k] is the service rate of n calls and k
	// packets, computed once per n; up to 127 buffer places it lives on the
	// stack. No session in the on state offers nothing, so that row stays 0.
	var (
		channels = m.cfg.Channels
		mu       = m.rates.PacketServiceRate
		limit    = m.flowControlLimit
		buf      [128]float64
		service  = buf[:min(width, len(buf))]
	)
	if width > len(buf) {
		service = make([]float64, width)
	}
	rows := make([]float64, (nGSM+1)*block*width)
	for n := range nGSM + 1 {
		for k := range service {
			service[k] = float64(channels.UsablePDCH(n, k)) * mu
		}
		copy(rows[n*block*width+1:][:width-1], service[1:])
		for on := 1; on <= maxM; on++ {
			rate := float64(on) * ipp.Lambda
			up := rows[(n*block+1+on)*width:][:width-1]
			for k := range up {
				up[k] = rate
				if !(float64(k) <= limit) && service[k] < rate {
					up[k] = service[k]
				}
			}
		}
	}
	// Line n·tri + t is block (n, m, r) with t = m(m+1)/2 + r (see
	// StateSpace), and sessions[t] is its m.
	tri := space.triSize
	sessions := make([]int32, 0, tri)
	for mm := range maxM + 1 {
		for range mm + 1 {
			sessions = append(sessions, int32(mm))
		}
	}
	return rows, func(l int, jump func(to int, rate float64)) (up, down int) {
		n, t := l/tri, l%tri
		mm := int(sessions[t])
		r := t - mm*(mm+1)/2
		line := func(n, mm, r int) int { return n*tri + mm*(mm+1)/2 + r }

		// (i) Incoming GSM calls and handovers: admitted while on-demand
		// channels remain.
		if n < nGSM && m.gsmArrival > 0 {
			jump(line(n+1, mm, r), m.gsmArrival)
		}

		// (ii) Incoming GPRS sessions and handovers: admitted below the
		// session limit M; the new session starts in IPP steady state.
		if mm < maxM && m.gprsArrival > 0 {
			jump(line(n, mm+1, r), pOn*m.gprsArrival)
			jump(line(n, mm+1, r+1), pOff*m.gprsArrival)
		}

		// (iii) GSM calls leaving the cell (completion or outgoing handover).
		if n > 0 {
			jump(line(n-1, mm, r), float64(n)*m.gsmDeparture)
		}

		// (iv) GPRS sessions leaving the cell. The leaving session is in the
		// off state with probability r/m and in the on state otherwise.
		if mm > 0 {
			total := float64(mm) * m.gprsDeparture
			switch {
			case r == 0:
				jump(line(n, mm-1, 0), total)
			case r == mm:
				jump(line(n, mm-1, r-1), total)
			default:
				frac := float64(r) / float64(mm)
				jump(line(n, mm-1, r-1), frac*total)
				jump(line(n, mm-1, r), (1-frac)*total)
			}
		}

		// (vii) MMPP phase changes of the aggregated arrival process.
		if r < mm {
			jump(line(n, mm, r+1), float64(mm-r)*ipp.Alpha)
		}
		if r > 0 {
			jump(line(n, mm, r-1), float64(r)*ipp.Beta)
		}
		return n*block + 1 + mm - r, n * block
	}
}

// BuildGenerator constructs the infinitesimal generator of the model, with
// every (n, m, r) block of K+1 buffer states as one line (see StateSpace),
// described once per line by Table 1. A line's rates up and down its buffer
// depend only on n and the m − r sessions in the on state, so the
// description declares one row of them per n and per (n, m − r), and each
// line names its two: 120 rows for the 660 lines of a Quick Fig. 6 point,
// and 1,040 for the 26,520 of a Table 2 traffic model 1 point. It keeps no
// vector over the states, and ctmc.NewGenerator visits each line twice and
// does no work per state: a build of a Quick Fig. 6 point allocates about
// 6.2 B a state, the rows and each line's jumps, stored once.
func (m *Model) BuildGenerator() (*ctmc.Generator, error) {
	rows, line := m.lines()
	return ctmc.NewGenerator(m.space.NumStates(), m.space.BufferSize()+1, rows, line)
}

// Result bundles the steady-state solution of the model with the derived
// performance measures.
type Result struct {
	// Measures holds the performance measures of Section 4.2.
	Measures Measures
	// Pi is the steady-state probability vector over the aggregated state
	// space (indexed via the model's StateSpace).
	Pi []float64
	// Solver reports diagnostics of the numerical solution.
	Solver SolverInfo
}

// SolverInfo records diagnostics of the steady-state computation.
// Relaxation is the relaxation factor ω of the last sweep (see
// ctmc.Solution).
type SolverInfo struct {
	Iterations  int
	Relaxation  float64
	Residual    float64
	Converged   bool
	NumStates   int
	Transitions int64
}

// ErrNotConverged is returned by Solve when the steady-state iteration did
// not converge within the given options.
var ErrNotConverged = errors.New("core: model solve did not converge")

// Solve builds the generator, computes the steady-state distribution with
// line Gauss–Seidel under the given solver options (zero value: defaults)
// and derives all performance measures. It returns an error wrapping
// ErrNotConverged when the solve did not converge. Every Table 1 transition
// but packet arrival (v) and service (vi) keeps the buffer level k, at a rate
// independent of k, so each (n, m, r) block of K+1 buffer states is a line
// fed by at most eight neighbour lines, and the build describes Table 1 once
// per line, not once per state. The line solve requires the exact mass of
// every line, and a nil opts.Aggregation is filled in with the exact
// product-form marginal of the lines: GSM calls and GPRS sessions with their
// MMPP phase evolve independently of the buffer and of each other, so their
// joint marginal is Erlang(n) × Erlang(m) × Binomial(r | m, p_off). Held at
// it, the sweeps only resolve the buffer distribution within each line,
// which each solves exactly. Each line starts at the equilibrium of its own
// buffer birth–death chain, and the sweeps are relaxed by an ω that each
// solve reads from its own contraction rate (ω ≈ 1.24–1.35 at Quick size,
// ≈ 1.58 on the Table 2 base point): the twelve Quick Fig. 6 configurations
// take 320 sweeps in total at tolerance 1e-6, against 540 unrelaxed and 630
// from lines spread evenly. Each sweep solves the 660 lines of a Quick
// Fig. 6 point in the generator's colour order (30 colours, four lines of a
// colour at a time), which gives the iterates of a sweep in index order, so
// the sweep count and every measure are those of index order; it leaves out
// the lines of mass 0, which at GPRS fraction 1 or 0 are 594 or 650 of the
// 660. Each line's Thomas pass writes into scratch of four line widths, and
// the relaxed update, reading the line's old values from the iterate,
// writes each of its states once. Besides the generator's per-line data and
// declared rate rows (see BuildGenerator), a solve holds two vectors over
// the states, the iterate and the inverse pivots of the lines' Thomas
// passes, which four lines' pivot recurrences at a time compute: 16 B a
// state.
func (m *Model) Solve(opts ctmc.SolveOptions) (*Result, error) {
	gen, err := m.BuildGenerator()
	if err != nil {
		return nil, fmt.Errorf("build generator: %w", err)
	}
	if opts.Aggregation == nil {
		opts.Aggregation = m.aggregation
	}
	sol, err := gen.SteadyState(opts)
	if err != nil {
		return nil, fmt.Errorf("steady state: %w", err)
	}
	if !sol.Converged {
		return nil, fmt.Errorf("%w: %d sweeps, residual %g", ErrNotConverged, sol.Iterations, sol.Residual)
	}
	measures, err := m.MeasuresFrom(sol.Pi)
	if err != nil {
		return nil, err
	}
	return &Result{
		Measures: measures,
		Pi:       sol.Pi,
		Solver: SolverInfo{
			Iterations:  sol.Iterations,
			Relaxation:  sol.Relaxation,
			Residual:    sol.Residual,
			Converged:   sol.Converged,
			NumStates:   gen.NumStates(),
			Transitions: gen.NumTransitions(),
		},
	}, nil
}

// productFormAggregation returns the exact stationary marginal of the
// (n, m, r) lines. With the index layout of StateSpace (n outermost, then
// the triangular (m, r) index t, then k), block (n, m, r) is line n·tri + t.
func (m *Model) productFormAggregation() (*ctmc.Aggregation, error) {
	gsmDist, err := m.gsmBalance.System.Distribution()
	if err != nil {
		return nil, err
	}
	gprsDist, err := m.gprsBalance.System.Distribution()
	if err != nil {
		return nil, err
	}
	lineLen := m.space.BufferSize() + 1
	mass := make([]float64, m.space.NumStates()/lineLen)
	for mm := 0; mm <= m.space.MaxSessions(); mm++ {
		phase := traffic.AggregateMMPP{Source: m.rates.IPP, M: mm}.StationaryDistribution()
		for r := 0; r <= mm; r++ {
			for n, pn := range gsmDist {
				l := m.space.Index(State{GSMCalls: n, Sessions: mm, OffSessions: r}) / lineLen
				mass[l] = pn * gprsDist[mm] * phase[r]
			}
		}
	}
	return &ctmc.Aggregation{Mass: mass}, nil
}
