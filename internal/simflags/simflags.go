// Package simflags declares the simulator flags that gprs-sim and
// gprs-experiments share — replication, adaptive stopping, variance
// reduction, cluster, sharding, scenario, policy and telemetry — and resolves
// them into the runner options and the scenario setup both commands apply.
package simflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Flags holds the parsed values of the shared simulator flags.
type Flags struct {
	replications, workers, minReps, maxReps, cells, shards int
	guard, hoQueue                                         int
	seed                                                   int64
	precision, hoDeadline                                  float64
	vr, target, partition, scenario, scenarioFile, trace   string
	policy, telemetry                                      string
}

// Bind declares the shared simulator flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.replications, "replications", 0, "independent simulator replications to run and merge, per point in gprs-experiments (0 = 1 in gprs-sim, the fidelity default 3 quick / 5 full in gprs-experiments); ignored with -precision")
	fs.IntVar(&f.workers, "workers", 0, "concurrent simulator replications, and in gprs-experiments model solutions too (0 = NumCPU); also sizes adaptive growth batches — pin it to reproduce -precision runs across machines")
	fs.Int64Var(&f.seed, "seed", 1, "base seed of the simulator replications")
	fs.Float64Var(&f.precision, "precision", 0, "adaptive stopping: relative CI half-width target for -target (0 = fixed -replications)")
	fs.IntVar(&f.minReps, "min-reps", 0, "adaptive mode: replications in the first batch (0 = 4)")
	fs.IntVar(&f.maxReps, "max-reps", 0, "adaptive mode: replication cap (0 = 64)")
	fs.StringVar(&f.vr, "vr", "none", "variance reduction of the simulator replications: none, antithetic, control")
	fs.StringVar(&f.target, "target", "throughput", "measure watched by -precision: "+strings.Join(sim.MeasureNames(), ", "))
	fs.IntVar(&f.cells, "cells", 0, "simulated cluster size, one of "+intsLabel(cluster.PresetSizes())+" (0 = 7, the paper's cluster; the hotspot figures of gprs-experiments default to 19); larger sizes are wrap-around hex rings")
	fs.IntVar(&f.shards, "shards", 1, "cell groups advanced in parallel per simulator replication (1 = one group on the calling goroutine)")
	fs.StringVar(&f.partition, "partition", "", "cell→group partitioning (needs -shards > 1): kind[:groups] with kinds "+strings.Join(partition.Kinds(), ", ")+", or explicit JSON (default: locality, one group per shard); never affects results")
	fs.StringVar(&f.scenario, "scenario", "", "built-in workload scenario of every simulator run: "+strings.Join(scenario.Names(), ", "))
	fs.StringVar(&f.scenarioFile, "scenario-file", "", "JSON workload-scenario file (overrides -scenario)")
	fs.StringVar(&f.trace, "trace", "", "replay a measured arrival trace from this CSV file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]); replaces the scenario's temporal profile")
	fs.StringVar(&f.policy, "policy", "", "handover admission policy of every simulator run (overrides the scenario's): "+strings.Join(policy.Names(), ", "))
	fs.IntVar(&f.guard, "guard", 0, "voice channels reserved for handovers (-policy guard)")
	fs.IntVar(&f.hoQueue, "ho-queue", 0, "per-cell handover queue capacity (-policy queue)")
	fs.Float64Var(&f.hoDeadline, "ho-deadline", 0, "maximum wait of a queued handover in seconds (-policy queue)")
	fs.StringVar(&f.telemetry, "telemetry", "", "serve live pprof/expvar telemetry on this address (e.g. :6060) for the duration of the run")
	return f
}

// Resolve checks the parsed flags and turns them into the replication
// options and the scenario setup of the run, so a bad value fails before any
// simulation or model solve starts. It starts the telemetry server last, once
// every other flag is known to be good.
func (f *Flags) Resolve() (runner.Options, scenario.Setup, error) {
	fail := func(err error) (runner.Options, scenario.Setup, error) {
		return runner.Options{}, scenario.Setup{}, err
	}
	vr, err := runner.ParseVR(f.vr)
	if err != nil {
		return fail(err)
	}
	target, err := sim.ParseMeasure(f.target)
	if err != nil {
		return fail(err)
	}
	setup := scenario.Setup{Cells: f.cells}
	if f.cells != 0 {
		if _, err := cluster.Preset(f.cells); err != nil {
			return fail(err)
		}
	}
	if f.partition != "" {
		if f.shards <= 1 {
			return fail(fmt.Errorf("-partition needs -shards > 1 (got -shards %d)", f.shards))
		}
		if setup.Partition, err = partition.ParseSpec(f.partition); err != nil {
			return fail(fmt.Errorf("-partition: %w", err))
		}
	}
	if setup.Scenario, err = resolveScenario(f.scenario, f.scenarioFile, f.trace); err != nil {
		return fail(err)
	}
	if setup.Policy, err = policyFromFlags(f.policy, f.guard, f.hoQueue, f.hoDeadline); err != nil {
		return fail(err)
	}
	if f.telemetry != "" {
		addr, err := probe.ServeTelemetry(f.telemetry)
		if err != nil {
			return fail(fmt.Errorf("telemetry: %w", err))
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}
	return runner.Options{
		Replications:    f.replications,
		Workers:         f.workers,
		BaseSeed:        f.seed,
		Shards:          f.shards,
		Precision:       f.precision,
		Target:          target,
		MinReplications: f.minReps,
		MaxReplications: f.maxReps,
		VR:              vr,
	}, setup, nil
}

// resolveScenario builds the scenario that -scenario (a preset name),
// -scenario-file and -trace select, or returns nil when none is set. A file
// wins over a preset name. A trace CSV replaces the temporal profile of
// whatever scenario the other two select, or rides on the uniform spatial
// baseline when it is the only one set, so a measured arrival series can
// modulate any spatial shape; a traced scenario without a name is named
// "trace".
func resolveScenario(name, file, trace string) (*scenario.Spec, error) {
	var spec scenario.Spec
	var err error
	switch {
	case file != "":
		spec, err = scenario.Load(file)
	case name != "":
		spec, err = scenario.Preset(name)
	case trace == "":
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if trace != "" {
		rows, err := scenario.LoadTraceCSV(trace)
		if err != nil {
			return nil, err
		}
		if spec.Name == "" {
			spec.Name = "trace"
		}
		spec.Temporal = scenario.Temporal{Kind: scenario.Trace, Rows: rows}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	return &spec, nil
}

// policyFromFlags builds the policy that -policy, -guard, -ho-queue and
// -ho-deadline select. An empty name returns nil, so a scenario's own policy
// stands, but then every parameter must be zero; "none" returns a None
// configuration, an explicit reset to the paper's default admission rule.
// The guard reservation is checked against no channel plan here:
// sim.Config.Validate checks it again once the plan is known.
func policyFromFlags(name string, guard, queueCap int, deadline float64) (*policy.Config, error) {
	if name == "" {
		if guard != 0 || queueCap != 0 || deadline != 0 {
			return nil, fmt.Errorf("-guard/-ho-queue/-ho-deadline need -policy (known: %s)", strings.Join(policy.Names(), ", "))
		}
		return nil, nil
	}
	kind, err := policy.Parse(name)
	if err != nil {
		return nil, err
	}
	p := policy.Config{Kind: kind, Guard: guard, QueueCapacity: queueCap, QueueDeadlineSec: deadline}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// intsLabel joins integer preset sizes into a "7, 19, 37, ..." flag label.
func intsLabel(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ", ")
}
