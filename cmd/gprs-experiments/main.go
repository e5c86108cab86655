// Command gprs-experiments regenerates the tables and figures of the paper's
// evaluation section and writes one CSV file per figure. Figures, sweep
// points, and simulator replications all run concurrently under one global
// -workers bound; simulator series carry cross-replication confidence
// intervals from -replications independent runs seeded from -seed. Overlapping
// model solutions are memoized across figures. -cells selects the simulated
// cluster size (7 is the paper's cluster; 19, 37, ... 331 are generated
// wrap-around hex rings) and -shards > 1 runs each simulator replication on
// the sharded multi-cell engine without changing the results. Progress is
// reported on stderr.
//
// -scenario/-scenario-file install a heterogeneous-load workload scenario
// (internal/scenario) on every simulator run; `-figure hotspot` regenerates
// the per-cell hotspot figures — the spatial response of the cluster by hex
// distance from the scenario center (or from the corridor axis for corridor
// scenarios such as the highway preset), the first workload the analytical
// model cannot express. Scenarios with a mobility profile (highway,
// hotspot-pedestrian) additionally skew the per-cell handover flow, reported
// by the hsp05 figure. -trace replays a measured arrival series from a CSV
// file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]), replacing the
// temporal profile of whatever scenario is selected.
//
// -policy (with -guard/-ho-queue/-ho-deadline) installs a handover admission
// policy (internal/policy) on every simulator run, overriding any policy the
// scenario declares; the policy presets (hotspot-guard, hotspot-hoqueue,
// highway-retry) bundle a policy with a matching load shape. The hsp06
// figure reports where in the cluster the policy intervenes.
//
// Progress is human-readable by default; -progress-json switches the stderr
// stream to structured JSON lines (one event per completed sweep point or
// figure group, with wall-clock elapsed and a remaining-work estimate), for
// driving dashboards or CI annotations. -telemetry serves live pprof and
// expvar runtime metrics over HTTP for the duration of the run.
//
// Examples:
//
//	gprs-experiments                      # quick fidelity, every figure
//	gprs-experiments -full -out results   # paper-resolution sweep
//	gprs-experiments -figure fig12        # a single figure
//	gprs-experiments -figure fig6 -replications 8 -workers 4
//	gprs-experiments -figure fig6 -cells 19 -shards 4
//	gprs-experiments -figure hotspot -cells 19 -replications 5
//	gprs-experiments -figure hotspot -scenario gradient
//	gprs-experiments -figure hotspot -scenario highway -cells 19
//	gprs-experiments -figure hotspot -scenario hotspot-guard
//	gprs-experiments -figure hotspot -scenario hotspot -policy guard -guard 2
//	gprs-experiments -full -progress-json 2>progress.jsonl
//	gprs-experiments -full -telemetry :6060
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/simflags"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gprs-experiments", flag.ContinueOnError)
	shared := simflags.Bind(fs)
	var (
		full   = fs.Bool("full", false, "run the paper-resolution parameter setting (slow)")
		figure = fs.String("figure", "all", "figure to regenerate: all, tables, "+strings.Join(experiments.FigureNames(), ", "))
		outDir = fs.String("out", "results", "directory for CSV output")
		noSim  = fs.Bool("no-sim", false, "skip the detailed-simulator series of figs 5 and 6")
		tol    = fs.Float64("tol", 0, "steady-state solver tolerance (0 = default)")
		quiet  = fs.Bool("quiet", false, "suppress progress output on stderr")
		pjson  = fs.Bool("progress-json", false, "emit structured JSON-lines progress events on stderr instead of human-readable lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := strings.ToLower(*figure)
	if name != "all" && name != "tables" && !slices.Contains(experiments.FigureNames(), name) {
		return fmt.Errorf("unknown figure %q (use all, tables, %s)", name, strings.Join(experiments.FigureNames(), ", "))
	}
	// Resolved up front: figures solve their full analytical sweeps before
	// the simulator runs, so a bad simulator flag must not surface only
	// after minutes of wasted model solutions.
	ro, setup, err := shared.Resolve()
	if err != nil {
		return err
	}

	start := time.Now()
	opts := experiments.Options{
		Fidelity:       experiments.Quick,
		Workers:        ro.Workers,
		WithSimulation: !*noSim,
		Tolerance:      *tol,
		Sim:            ro,
		Setup:          setup,
	}
	if *full {
		opts.Fidelity = experiments.Full
	}
	switch {
	case *quiet:
		// No progress stream at all.
	case *pjson:
		opts.Progress = jsonProgress(os.Stderr, start)
	default:
		opts.Progress = func(ev experiments.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), progressText(ev))
		}
	}

	if name == "tables" || name == "all" {
		fmt.Fprint(stdout, experiments.TableBaseParameters().String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.TableTrafficModels().String())
		fmt.Fprintln(stdout)
		if name == "tables" {
			return nil
		}
	}

	figs, err := experiments.Figures(name, opts)
	if errors.Is(err, experiments.ErrSimulationOnly) {
		return fmt.Errorf("-figure %s plots only simulator series; it cannot run with -no-sim", name)
	}
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Fprint(stdout, experiments.FormatFigure(fig))
		fmt.Fprintln(stdout)
	}
	paths, err := experiments.WriteAllCSV(figs, *outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d CSV files to %s in %.1fs\n", len(paths), *outDir, time.Since(start).Seconds())
	return nil
}

// progressLine is one JSON-lines record of -progress-json: the structured
// experiments event plus wall-clock pacing derived from it.
type progressLine struct {
	experiments.ProgressEvent
	// ElapsedSec is the wall-clock time since the run started.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ETASec estimates the remaining wall-clock time of the event's figure
	// from its completed-point fraction; omitted on group events and on the
	// run's first point (no pace yet).
	ETASec float64 `json:"eta_sec,omitempty"`
}

// progressText renders one progress event as a human-readable line.
func progressText(ev experiments.ProgressEvent) string {
	if ev.Kind == "group" {
		return fmt.Sprintf("%s done (%d/%d figure groups)", ev.Figure, ev.Done, ev.Total)
	}
	note := ""
	if ev.Adaptive {
		note = ", hit replication cap"
		if ev.Converged {
			note = fmt.Sprintf(", converged at %.2g relative half-width", ev.RelativeHalfWidth)
		}
	}
	return fmt.Sprintf("%s: simulated point %d/%d (%d replications%s)", ev.Figure, ev.Done, ev.Total, ev.Replications, note)
}

// jsonProgress returns an experiments.Options.Progress callback that streams
// one JSON line per completion event to w. Calls are serialized by the
// experiments package, so the encoder needs no extra locking.
func jsonProgress(w *os.File, start time.Time) func(experiments.ProgressEvent) {
	enc := json.NewEncoder(w)
	return func(ev experiments.ProgressEvent) {
		line := progressLine{ProgressEvent: ev, ElapsedSec: time.Since(start).Seconds()}
		if ev.Kind == "point" && ev.Done > 0 && ev.Total > ev.Done {
			line.ETASec = line.ElapsedSec / float64(ev.Done) * float64(ev.Total-ev.Done)
		}
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "progress-json: %v\n", err)
		}
	}
}
