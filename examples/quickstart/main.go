// Quickstart: build the GPRS Markov model with the paper's base parameter
// setting (Table 2, traffic model 3), solve it, and print the headline
// performance measures. This is the smallest complete use of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

func main() {
	// One cell with 20 physical channels, 1 PDCH reserved for GPRS, traffic
	// model 3 (heavy WWW browsing load), 0.3 GSM+GPRS calls per second.
	cfg := core.BaseConfig(traffic.Model3, 0.3)

	model, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state space: %d states\n", model.StateSpace().NumStates())
	fmt.Printf("balanced handover rates: GSM %.4f/s, GPRS %.4f/s\n",
		model.GSMHandover().HandoverRate, model.GPRSHandover().HandoverRate)

	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
	if err != nil {
		log.Fatal(err)
	}

	m := res.Measures
	fmt.Printf("carried data traffic:     %.3f PDCHs\n", m.CarriedDataTraffic)
	fmt.Printf("packet loss probability:  %.5f\n", m.PacketLossProbability)
	fmt.Printf("queueing delay:           %.2f s\n", m.QueueingDelay)
	fmt.Printf("throughput per user:      %.0f bit/s\n", m.ThroughputPerUserBits)
	fmt.Printf("active GPRS sessions:     %.2f\n", m.AverageSessions)
	fmt.Printf("carried voice traffic:    %.2f channels\n", m.CarriedVoiceTraffic)
	fmt.Printf("GSM / GPRS blocking:      %.4g / %.4g\n",
		m.GSMBlockingProbability, m.GPRSBlockingProbability)
	fmt.Printf("solver: line Gauss–Seidel, %d iterations\n", res.Solver.Iterations)
}
