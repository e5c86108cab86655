package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

// SolverComparison is the result of solving the same model with one iteration
// scheme (the solver ablation of DESIGN.md).
type SolverComparison struct {
	Method     ctmc.Method
	Iterations int
	Residual   float64
	Converged  bool
	CDT        float64
	PLP        float64
}

// SolverAblation solves a quick-fidelity traffic-model-3 configuration with
// every available steady-state method and reports iteration counts and the
// resulting headline measures. All methods must agree on the measures; the
// iteration counts quantify why Gauss–Seidel is the default. Every method
// runs with the product-form aggregation that core.Model.Solve installs: at
// tolerance 1e-6, Gauss–Seidel (line sweeps over each (n, m, r) block),
// Jacobi and power iteration take 60, 730 and 2810 sweeps; point
// Gauss–Seidel sweeps under the same aggregation took 200. Plain sweeps from
// a product-form starting guess took 3020, 10560 and 3160; power iteration
// already preserves the exact (n, m, r) marginal, so the rescale does little
// for it.
func SolverAblation(o Options) ([]SolverComparison, error) {
	o = o.withDefaults()
	cfg := baseConfig(Quick, traffic.Model3, 0.6)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	methods := []ctmc.Method{ctmc.GaussSeidel, ctmc.Jacobi, ctmc.Power}
	out := make([]SolverComparison, 0, len(methods))
	for _, method := range methods {
		res, err := model.Solve(ctmc.SolveOptions{
			Method:        method,
			Tolerance:     o.Tolerance,
			MaxIterations: 200000,
			Parallel:      method != ctmc.GaussSeidel,
		})
		if err != nil {
			return out, fmt.Errorf("%v: %w", method, err)
		}
		out = append(out, SolverComparison{
			Method:     method,
			Iterations: res.Solver.Iterations,
			Residual:   res.Solver.Residual,
			Converged:  res.Solver.Converged,
			CDT:        res.Measures.CarriedDataTraffic,
			PLP:        res.Measures.PacketLossProbability,
		})
	}
	return out, nil
}

// HandoverAblation compares the balanced handover fixed point (Eqs. 4-5)
// against the naive initialization (incoming handover rate = fresh arrival
// rate), quantifying how much the balancing procedure matters for the
// reported measures.
type HandoverAblation struct {
	// BalancedHandoverRate is the fixed-point incoming GPRS handover rate.
	BalancedHandoverRate float64
	// NaiveHandoverRate is the initialization lambda_h = lambda.
	NaiveHandoverRate float64
	// BalancedAGS and NaiveAGS are the resulting average session counts.
	BalancedAGS float64
	NaiveAGS    float64
	// Iterations is the number of fixed-point iterations needed.
	Iterations int
}

// HandoverBalancingAblation runs the ablation for the given traffic model and
// call arrival rate at quick fidelity.
func HandoverBalancingAblation(model traffic.Model, rate float64) (HandoverAblation, error) {
	cfg := baseConfig(Quick, model, rate)
	m, err := core.New(cfg)
	if err != nil {
		return HandoverAblation{}, err
	}
	balance := m.GPRSHandover()
	rates := cfg.DeriveRates()

	// Naive: treat the fresh session arrival rate as the incoming handover
	// rate without iterating.
	naiveSystem := balance.System
	naiveSystem.Lambda = rates.NewGPRSSessionRate * 2
	naiveAGS, err := naiveSystem.MeanBusyServers()
	if err != nil {
		return HandoverAblation{}, err
	}
	balancedAGS, err := balance.System.MeanBusyServers()
	if err != nil {
		return HandoverAblation{}, err
	}
	return HandoverAblation{
		BalancedHandoverRate: balance.HandoverRate,
		NaiveHandoverRate:    rates.NewGPRSSessionRate,
		BalancedAGS:          balancedAGS,
		NaiveAGS:             naiveAGS,
		Iterations:           balance.Iterations,
	}, nil
}
