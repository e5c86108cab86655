// Validation: compare the analytical Markov model against the detailed
// seven-cell simulator with TCP flow control, in the style of Fig. 6 of the
// paper. The example uses a scaled-down cell and a short simulation so it
// finishes in well under a minute; cmd/gprs-experiments -full runs the
// paper-resolution validation.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	rates := []float64{0.2, 0.6, 1.0}

	fmt.Println("carried data traffic (PDCHs): Markov model vs detailed simulator (95% CI)")
	fmt.Printf("%-12s %-12s %-24s %s\n", "call rate", "model", "simulator", "model inside CI?")
	for _, rate := range rates {
		model := solveModel(rate)
		simRes := runSimulator(rate)

		iv := simRes.CarriedDataTraffic
		inside := iv.Contains(model.CarriedDataTraffic)
		fmt.Printf("%-12.2f %-12.3f %-24s %v\n",
			rate, model.CarriedDataTraffic, iv.String(), inside)
	}

	fmt.Println()
	fmt.Println("throughput per user (bit/s):")
	fmt.Printf("%-12s %-12s %-24s\n", "call rate", "model", "simulator")
	for _, rate := range rates {
		model := solveModel(rate)
		simRes := runSimulator(rate)
		fmt.Printf("%-12.2f %-12.0f %-24s\n",
			rate, model.ThroughputPerUserBits, simRes.ThroughputPerUserBits.String())
	}
}

func scaledModelConfig(rate float64) core.Config {
	cfg := core.BaseConfig(traffic.Model3, rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	return cfg
}

func solveModel(rate float64) core.Measures {
	model, err := core.New(scaledModelConfig(rate))
	if err != nil {
		log.Fatal(err)
	}
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	return res.Measures
}

func runSimulator(rate float64) sim.Results {
	cfg := sim.DefaultConfig(traffic.Model3, rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 500
	cfg.MeasurementSec = 4000
	cfg.Batches = 5
	cfg.Seed = 42
	// RunOnce is the engine-selection entry point: Shards > 1 advances cell
	// groups in parallel conservative time windows, bit-identical to the
	// one-group run, so the choice only affects wall-clock time.
	res, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
