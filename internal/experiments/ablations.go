package experiments

import (
	"repro/internal/core"
	"repro/internal/traffic"
)

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
