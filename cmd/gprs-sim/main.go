// Command gprs-sim runs the detailed network-level GPRS simulator (hexagonal
// cluster, TDMA-block transmission, TCP flow control) and prints the mid-cell
// measures with 95% confidence intervals. With -replications R > 1 the run
// fans R independent replications (seeded from disjoint substreams of -seed)
// out across -workers CPUs and reports cross-replication intervals; the
// merged results are bit-identical for a given (seed, replications) pair
// regardless of the worker count. -cells selects the cluster size (7 is the
// paper's cluster; the larger presets up to city scale — 19, 37, 61, ...,
// 331 — are generated wrap-around hex rings) and -shards > 1 advances cell
// groups of each replication in parallel conservative time windows — again
// without changing the results. -partition pins the cell→group assignment
// of such runs (kind[:groups] — locality, index-range — or an explicit JSON
// spec; it needs -shards > 1); the default is the locality-aware grouping of
// internal/partition, and no partitioning ever changes the results.
//
// -scenario installs a built-in heterogeneous-load workload scenario
// (hotspot cells, load gradients, busy-hour ramps, highway corridors) and
// -scenario-file loads one from a JSON file. Scenarios can shape mobility as
// well as load: dwell-time multipliers per cell (fast vehicles on a highway
// corridor, slow pedestrians in a hotspot — presets highway and
// hotspot-pedestrian) skew the handover flow itself. Serial and sharded
// engines stay bit-identical under every scenario, and -percell prints the
// per-cell report that makes the spatial response visible — including the
// handover-flow columns (HO in/out/fail), the signature of mobility
// scenarios — with cross-replication confidence half-widths when more than
// one replication ran. -trace replays a measured arrival series from a CSV
// file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]): the series is
// normalized to mean rate 1 and replaces the temporal profile of whatever
// scenario is selected, so empirical traffic can modulate any spatial shape.
//
// -policy selects the handover admission policy (internal/policy): "guard"
// reserves -guard voice channels for handovers, "queue" parks blocked voice
// handovers in a per-cell queue bounded by -ho-queue entries and -ho-deadline
// seconds, and "retry" forwards a failed handover once to the source cell's
// next neighbour. Scenarios can carry a policy of their own (presets
// hotspot-guard, hotspot-hoqueue, highway-retry); an explicit -policy
// overrides it, and -policy none restores the paper's default admission rule.
// When a policy engaged, -percell appends its counters — guard-blocked fresh
// calls, handovers queued/served/expired, retry forwards, and calls that
// completed during the handover interruption.
//
// -precision enables the adaptive stopping rule: instead of a fixed
// -replications count, replications are added in batches until the relative
// confidence half-width of the -target measure drops below the threshold,
// within [-min-reps, -max-reps]. -vr selects a variance-reduction scheme
// (antithetic replication pairs, or the Erlang-B control-variate estimator).
// See the README's "Statistical methodology" section for the estimators.
//
// -series arms the deterministic time-series probes (internal/probe) and
// writes one record per probe window and cell — queue depth, voice calls,
// sessions, cumulative packet/blocking/handover counters, and per-window PLP
// and throughput — without perturbing the simulation: results stay
// bit-identical with probes on or off. The format is JSONL when the path ends
// in .jsonl, CSV otherwise; -series-dt sets the window width in simulated
// seconds. Replicated runs emit the cross-replication merge (mean ± CI
// half-width per window and cell). -telemetry serves live pprof and expvar
// runtime metrics (events/sec, shard barrier waits, replication progress)
// over HTTP for the duration of the run.
//
// Examples:
//
//	gprs-sim -model 3 -rate 0.5 -pdch 1 -measure 20000
//	gprs-sim -rate 0.5 -replications 8 -workers 4
//	gprs-sim -rate 0.5 -precision 0.05 -max-reps 32
//	gprs-sim -rate 0.5 -precision 0.05 -vr antithetic
//	gprs-sim -rate 0.5 -cells 19 -shards 4
//	gprs-sim -rate 0.5 -cells 61 -shards 4 -partition locality:4
//	gprs-sim -rate 0.5 -cells 19 -scenario hotspot -percell
//	gprs-sim -rate 0.5 -cells 19 -scenario highway -percell
//	gprs-sim -rate 0.5 -scenario-file rush.json
//	gprs-sim -rate 0.5 -trace measured.csv -percell
//	gprs-sim -rate 0.5 -series out.csv -series-dt 10
//	gprs-sim -rate 0.5 -replications 8 -series merged.jsonl
//	gprs-sim -rate 0.5 -measure 100000 -telemetry :6060
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simflags"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gprs-sim", flag.ContinueOnError)
	shared := simflags.Bind(fs)
	var (
		modelID = fs.Int("model", 3, "traffic model (1, 2, or 3)")
		rate    = fs.Float64("rate", 0.5, "total GSM+GPRS call arrival rate per cell (calls/s)")
		pdch    = fs.Int("pdch", 1, "number of PDCHs permanently reserved for GPRS")
		gprsPct = fs.Float64("gprs", 0.05, "fraction of arriving calls that are GPRS sessions")
		tcpOff  = fs.Bool("no-tcp", false, "disable TCP flow control (open-loop IPP sources)")
		warmup  = fs.Float64("warmup", 2000, "warm-up time discarded before measuring (s)")
		measure = fs.Float64("measure", 20000, "measured simulation time (s)")
		batches = fs.Int("batches", 10, "number of batch-means batches")
		perCell = fs.Bool("percell", false, "print the per-cell report after the mid-cell measures")
		series  = fs.String("series", "", "write per-window per-cell time series to this file (.jsonl = JSON lines, otherwise CSV)")
		serieDT = fs.Float64("series-dt", 10, "probe window width of -series in simulated seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := traffic.ParseModel(*modelID)
	if err != nil {
		return err
	}
	ro, setup, err := shared.Resolve()
	if err != nil {
		return err
	}

	cfg := sim.DefaultConfig(model, *rate)
	cfg.Channels.ReservedPDCH = *pdch
	cfg.GPRSFraction = *gprsPct
	cfg.EnableTCP = !*tcpOff
	cfg.WarmupSec = *warmup
	cfg.MeasurementSec = *measure
	cfg.Batches = *batches
	cfg.Seed = ro.BaseSeed
	if *series != "" {
		cfg.Probe = &probe.Spec{IntervalSec: *serieDT}
	}
	prof, err := setup.Apply(&cfg)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := runner.CheckBatches(cfg, ro); err != nil {
		return err
	}
	scenarioLabel := "uniform (paper baseline)"
	if prof != nil {
		scenarioLabel = describeProfile(*setup.Scenario, prof, cfg.Mobility)
	}
	policyLabel := "default admission (paper)"
	if cfg.Policy != nil {
		policyLabel = describePolicy(cfg.Policy)
	}

	if ro.Replications < 1 {
		ro.Replications = 1
	}
	repsLabel := fmt.Sprintf("%d replication(s)", ro.Replications)
	if ro.Precision > 0 {
		repsLabel = fmt.Sprintf("adaptive replications (%.3g relative half-width on %s)", ro.Precision, ro.Target)
	}
	fmt.Fprintf(stdout, "simulating %s, rate %.3g calls/s per cell, %d cells, %d reserved PDCHs, TCP %v, %s, scenario %s, policy %s...\n",
		model, *rate, cfg.Topology.NumCells(), *pdch, cfg.EnableTCP, repsLabel, scenarioLabel, policyLabel)

	if ro.Replications <= 1 && ro.Precision <= 0 && ro.VR == runner.VRNone {
		// A single run bypasses runner.Run deliberately: it uses cfg.Seed
		// directly (not the SeedFor substream of a base seed) and reports
		// batch-means intervals, matching the pre-replication-engine
		// behaviour of this command.
		res, ser, err := sim.RunOnceSeries(cfg, sim.ShardedOptions{Shards: ro.Shards})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.String())
		if *perCell {
			printPerCell(stdout, res.PerCell, nil)
		}
		if *series != "" {
			write := func(w io.Writer) error { return probe.WriteCSV(w, ser) }
			if strings.HasSuffix(*series, ".jsonl") {
				write = func(w io.Writer) error { return probe.WriteJSONL(w, ser) }
			}
			if err := writeFile(*series, write); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "series written to %s (%d windows of %gs)\n", *series, ser.Windows(), ser.IntervalSec)
		}
		return nil
	}

	ro.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "replication %d/%d done\n", done, total)
	}
	sum, err := runner.Run(cfg, ro)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, sum.String())
	if *perCell {
		printPerCell(stdout, sum.Merged.PerCell, sum.Merged.PerCellCI)
	}
	if *series != "" {
		if sum.Series == nil {
			return fmt.Errorf("series: replications produced no mergeable time series")
		}
		write := func(w io.Writer) error { return runner.WriteSeriesCSV(w, sum.Series) }
		if strings.HasSuffix(*series, ".jsonl") {
			write = func(w io.Writer) error { return runner.WriteSeriesJSONL(w, sum.Series) }
		}
		if err := writeFile(*series, write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merged series written to %s (%d windows of %gs, %d replications)\n",
			*series, len(sum.Series.Times), sum.Series.IntervalSec, sum.Series.Replications)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// describePolicy labels the installed policy for the run header.
func describePolicy(p *policy.Config) string {
	switch p.Kind {
	case policy.GuardChannels:
		return fmt.Sprintf("guard (%d reserved)", p.Guard)
	case policy.QueuedHandovers:
		return fmt.Sprintf("queue (capacity %d, deadline %gs)", p.QueueCapacity, p.QueueDeadlineSec)
	case policy.DirectedRetry:
		return "retry (one forward)"
	default:
		return p.Kind.String()
	}
}

// describeProfile labels a compiled scenario for the run header, including
// the dwell-multiplier range when the scenario shapes mobility.
func describeProfile(spec scenario.Spec, prof *scenario.Profile, mob sim.MobilityProfile) string {
	name := spec.Name
	if name == "" {
		name = "custom"
	}
	lo, hi := weightRange(prof.Weights())
	label := fmt.Sprintf("%q (cell weights %.3g..%.3g)", name, lo, hi)
	if dp, ok := mob.(*scenario.DwellProfile); ok && dp != nil {
		mlo, mhi := weightRange(dp.Weights())
		label += fmt.Sprintf(", dwell multipliers %.3g..%.3g", mlo, mhi)
	}
	return label
}

// weightRange returns the smallest and largest entry of a weight vector.
func weightRange(weights []float64) (lo, hi float64) {
	lo, hi = weights[0], weights[0]
	for _, w := range weights {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	return lo, hi
}

// printPerCell renders the per-cell report as a small table. When the
// cross-replication intervals are available (replicated runs; see
// sim.Results.PerCellCI), every point estimate carries its confidence
// half-width; a single run prints bare point estimates.
func printPerCell(w io.Writer, cells []sim.CellMeasures, cis []sim.CellIntervals) {
	// policyActive gates the six admission-policy columns: under the paper's
	// default policy they are identically zero and would only widen the table.
	policyActive := false
	for _, m := range cells {
		if m.GuardBlockedCalls != 0 || m.HandoversQueued != 0 || m.HandoverQueueServed != 0 ||
			m.HandoverQueueExpired != 0 || m.HandoverRetries != 0 || m.HandoverTransitEnds != 0 {
			policyActive = true
			break
		}
	}
	policyHeader, policyRow := "", func(sim.CellMeasures) string { return "" }
	if policyActive {
		policyHeader = fmt.Sprintf(" %9s %8s %8s %8s %8s %8s",
			"guard blk", "HO qd", "HO srv", "HO exp", "HO rty", "HO end")
		policyRow = func(m sim.CellMeasures) string {
			return fmt.Sprintf(" %9d %8d %8d %8d %8d %8d",
				m.GuardBlockedCalls, m.HandoversQueued, m.HandoverQueueServed,
				m.HandoverQueueExpired, m.HandoverRetries, m.HandoverTransitEnds)
		}
	}
	if len(cis) != len(cells) {
		fmt.Fprintf(w, "per-cell measures:\n")
		fmt.Fprintf(w, "  %4s %8s %8s %8s %8s %10s %12s %8s %8s %8s%s\n",
			"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
		for _, m := range cells {
			fmt.Fprintf(w, "  %4d %8.3f %8.3f %8.3f %8.3f %10.4f %12.0f %8d %8d %8d%s\n",
				m.Cell, m.CarriedVoiceTraffic, m.AverageSessions, m.CarriedDataTraffic,
				m.MeanQueueLength, m.GSMBlocking, m.ThroughputBits,
				m.HandoversIn, m.HandoversOut, m.HandoverFailures, policyRow(m))
		}
		return
	}
	fmt.Fprintf(w, "per-cell measures (± cross-replication CI half-width):\n")
	fmt.Fprintf(w, "  %4s %16s %16s %16s %16s %18s %20s %8s %8s %8s%s\n",
		"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
	pm := func(v float64, iv stats.Interval) string {
		return fmt.Sprintf("%.3f ±%.3f", v, iv.HalfWidth)
	}
	for i, m := range cells {
		iv := cis[i]
		fmt.Fprintf(w, "  %4d %16s %16s %16s %16s %18s %20s %8d %8d %8d%s\n",
			m.Cell,
			pm(m.CarriedVoiceTraffic, iv.CarriedVoiceTraffic),
			pm(m.AverageSessions, iv.AverageSessions),
			pm(m.CarriedDataTraffic, iv.CarriedDataTraffic),
			pm(m.MeanQueueLength, iv.MeanQueueLength),
			fmt.Sprintf("%.4f ±%.4f", m.GSMBlocking, iv.GSMBlocking.HalfWidth),
			fmt.Sprintf("%.0f ±%.0f", m.ThroughputBits, iv.ThroughputBits.HalfWidth),
			m.HandoversIn, m.HandoversOut, m.HandoverFailures, policyRow(m))
	}
}
