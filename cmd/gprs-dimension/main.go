// Command gprs-dimension answers the paper's engineering question: how many
// PDCHs must be reserved for GPRS so that a QoS profile (a maximum relative
// throughput degradation per user) holds up to a target call arrival rate?
// It mirrors the discussion of Figs. 11-13 in Section 5.3.
//
// Example:
//
//	gprs-dimension -gprs 0.05 -rate 0.5 -degradation 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-dimension:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gprs-dimension", flag.ContinueOnError)
	var (
		modelID     = fs.Int("model", 3, "traffic model (1, 2, or 3)")
		rate        = fs.Float64("rate", 0.5, "target GSM+GPRS call arrival rate (calls/s)")
		gprsPct     = fs.Float64("gprs", 0.05, "fraction of arriving calls that are GPRS sessions")
		degradation = fs.Float64("degradation", 0.5, "maximum tolerated relative throughput degradation per user")
		maxPDCH     = fs.Int("max-pdch", 8, "largest number of reserved PDCHs to consider")
		tol         = fs.Float64("tol", 1e-6, "steady-state solver tolerance")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *degradation <= 0 || *degradation >= 1 {
		return fmt.Errorf("degradation must lie in (0, 1), got %v", *degradation)
	}
	if *maxPDCH < 0 {
		return fmt.Errorf("max-pdch must be at least 0, got %d", *maxPDCH)
	}
	model, err := traffic.ParseModel(*modelID)
	if err != nil {
		return err
	}
	solve := func(pdch int, callRate float64) (core.Measures, error) {
		cfg := core.BaseConfig(model, callRate)
		cfg.GPRSFraction = *gprsPct
		cfg.Channels.ReservedPDCH = pdch
		m, err := core.New(cfg)
		if err != nil {
			return core.Measures{}, err
		}
		res, err := m.Solve(ctmc.SolveOptions{Tolerance: *tol})
		if err != nil {
			return core.Measures{}, err
		}
		return res.Measures, nil
	}

	fmt.Fprintf(out, "QoS profile: per-user throughput degradation at most %.0f%% at %.3g calls/s, %.0f%% GPRS users, %s\n",
		*degradation*100, *rate, *gprsPct*100, model)

	for pdch := 0; pdch <= *maxPDCH; pdch++ {
		// Reference throughput: the same configuration under negligible load.
		ref, err := solve(pdch, 0.01)
		if err != nil {
			return err
		}
		loaded, err := solve(pdch, *rate)
		if err != nil {
			return err
		}
		if ref.ThroughputPerUserBits <= 0 {
			fmt.Fprintf(out, "  %d PDCH: no reference throughput (no GPRS traffic?)\n", pdch)
			continue
		}
		drop := 1 - loaded.ThroughputPerUserBits/ref.ThroughputPerUserBits
		ok := drop <= *degradation
		fmt.Fprintf(out, "  %d reserved PDCH: throughput %.0f -> %.0f bit/s per user (degradation %.0f%%) %s\n",
			pdch, ref.ThroughputPerUserBits, loaded.ThroughputPerUserBits, drop*100, verdict(ok))
		if ok {
			fmt.Fprintf(out, "=> reserving %d PDCH(s) meets the QoS profile\n", pdch)
			return nil
		}
	}
	fmt.Fprintf(out, "=> the QoS profile cannot be met with up to %d reserved PDCHs; use stricter admission control\n", *maxPDCH)
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "violated"
}
