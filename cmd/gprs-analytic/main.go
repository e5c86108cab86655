// Command gprs-analytic solves the analytical GPRS Markov model for one
// configuration and prints every performance measure of Section 4.2 of the
// paper.
//
// Example:
//
//	gprs-analytic -model 3 -rate 0.5 -pdch 2 -gprs 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-analytic:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gprs-analytic", flag.ContinueOnError)
	var (
		modelID  = fs.Int("model", 3, "traffic model (1, 2, or 3; Table 3 of the paper)")
		rate     = fs.Float64("rate", 0.5, "total GSM+GPRS call arrival rate (calls/s)")
		pdch     = fs.Int("pdch", 1, "number of PDCHs permanently reserved for GPRS")
		channels = fs.Int("channels", 20, "total number of physical channels in the cell")
		buffer   = fs.Int("buffer", 100, "BSC buffer size K (packets)")
		gprsPct  = fs.Float64("gprs", 0.05, "fraction of arriving calls that are GPRS sessions")
		eta      = fs.Float64("eta", 0.7, "TCP flow-control threshold")
		maxSess  = fs.Int("sessions", 0, "session admission limit M (0 = traffic model default)")
		tol      = fs.Float64("tol", 1e-6, "steady-state solver tolerance")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxSess < 0 {
		return fmt.Errorf("sessions must be at least 0, got %d", *maxSess)
	}
	if !(*tol > 0 && *tol < 1) {
		return fmt.Errorf("tol must lie in (0, 1), got %g", *tol)
	}

	model, err := traffic.ParseModel(*modelID)
	if err != nil {
		return err
	}
	cfg := core.BaseConfig(model, *rate)
	cfg.Channels.TotalChannels = *channels
	cfg.Channels.ReservedPDCH = *pdch
	cfg.BufferSize = *buffer
	cfg.GPRSFraction = *gprsPct
	cfg.FlowControlThreshold = *eta
	if *maxSess > 0 {
		cfg.MaxSessions = *maxSess
	}

	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "solving %s, rate %.3g calls/s, %d/%d reserved PDCHs, %d states...\n",
		model, *rate, *pdch, *channels, cfg.NumStates())
	res, err := m.Solve(ctmc.SolveOptions{Tolerance: *tol})
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	meas := res.Measures
	fmt.Fprintf(w, "carried data traffic (CDT)\t%.4f PDCHs\n", meas.CarriedDataTraffic)
	fmt.Fprintf(w, "packet loss probability (PLP)\t%.6g\n", meas.PacketLossProbability)
	fmt.Fprintf(w, "queueing delay (QD)\t%.4f s\n", meas.QueueingDelay)
	fmt.Fprintf(w, "throughput\t%.1f bit/s\n", meas.ThroughputBits)
	fmt.Fprintf(w, "throughput per user (ATU)\t%.1f bit/s\n", meas.ThroughputPerUserBits)
	fmt.Fprintf(w, "average GPRS sessions (AGS)\t%.4f\n", meas.AverageSessions)
	fmt.Fprintf(w, "carried voice traffic (CVT)\t%.4f channels\n", meas.CarriedVoiceTraffic)
	fmt.Fprintf(w, "GSM blocking probability\t%.6g\n", meas.GSMBlockingProbability)
	fmt.Fprintf(w, "GPRS blocking probability\t%.6g\n", meas.GPRSBlockingProbability)
	fmt.Fprintf(w, "balanced GSM handover rate\t%.6g 1/s\n", meas.GSMHandoverRate)
	fmt.Fprintf(w, "balanced GPRS handover rate\t%.6g 1/s\n", meas.GPRSHandoverRate)
	fmt.Fprintf(w, "solver\tline Gauss–Seidel, %d iterations, relaxation %.3g, residual %.3g\n",
		res.Solver.Iterations, res.Solver.Relaxation, res.Solver.Residual)
	return w.Flush()
}
