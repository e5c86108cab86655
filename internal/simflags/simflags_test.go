package simflags

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// traceCSV is a small measured-arrival trace in the -trace CSV format.
const traceCSV = "time_sec,arrivals,payload_bytes\n0,180,420\n300,540,460\n600,720,510\n900,480,475\n1200,240,440\n1500,150,430\n1800,0,0\n"

// writeFiles writes an unnamed gradient scenario file and a trace CSV into
// a fresh directory and returns their paths.
func writeFiles(t *testing.T) (scenarioFile, traceFile string) {
	t.Helper()
	dir := t.TempDir()
	scenarioFile = filepath.Join(dir, "unnamed.json")
	traceFile = filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(scenarioFile, []byte(`{"spatial": {"kind": "gradient", "low": 1, "high": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traceFile, []byte(traceCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return scenarioFile, traceFile
}

// resolve parses args into a fresh flag set and resolves them.
func resolve(args ...string) (runner.Options, scenario.Setup, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		return runner.Options{}, scenario.Setup{}, err
	}
	return f.Resolve()
}

// TestFlagsResolve parses argument lists covering every shared flag and
// checks the resolved runner options and scenario setup, and that every bad
// value fails with an error naming it.
func TestFlagsResolve(t *testing.T) {
	scenarioFile, traceFile := writeFiles(t)
	hotspot, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	gradient, err := scenario.Load(scenarioFile)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scenario.LoadTraceCSV(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	traced := scenario.Spec{Name: "trace", Temporal: scenario.Temporal{Kind: scenario.Trace, Rows: rows}}

	defaults := runner.Options{BaseSeed: 1, Shards: 1, Target: sim.MeasureThroughput, VR: runner.VRNone}
	with := func(edit func(*runner.Options)) runner.Options {
		o := defaults
		edit(&o)
		return o
	}
	for _, c := range []struct {
		args      []string
		wantOpts  runner.Options
		wantSetup scenario.Setup
	}{
		{nil, defaults, scenario.Setup{}},
		{[]string{"-replications", "4", "-workers", "2", "-seed", "9"},
			with(func(o *runner.Options) { o.Replications, o.Workers, o.BaseSeed = 4, 2, 9 }), scenario.Setup{}},
		{[]string{"-precision", "0.05", "-min-reps", "2", "-max-reps", "12", "-target", "plp", "-vr", "antithetic"},
			with(func(o *runner.Options) {
				o.Precision, o.MinReplications, o.MaxReplications = 0.05, 2, 12
				o.Target, o.VR = sim.MeasurePLP, runner.VRAntithetic
			}), scenario.Setup{}},
		{[]string{"-cells", "19", "-shards", "2", "-partition", "locality:2"},
			with(func(o *runner.Options) { o.Shards = 2 }),
			scenario.Setup{Cells: 19, Partition: &partition.Spec{Kind: partition.KindLocality, Groups: 2}}},
		{[]string{"-scenario", "hotspot"}, defaults, scenario.Setup{Scenario: &hotspot}},
		{[]string{"-scenario", "hotspot", "-scenario-file", scenarioFile}, defaults, scenario.Setup{Scenario: &gradient}},
		{[]string{"-trace", traceFile}, defaults, scenario.Setup{Scenario: &traced}},
		{[]string{"-policy", "guard", "-guard", "2"}, defaults,
			scenario.Setup{Policy: &policy.Config{Kind: policy.GuardChannels, Guard: 2}}},
		{[]string{"-policy", "queue", "-ho-queue", "4", "-ho-deadline", "5"}, defaults,
			scenario.Setup{Policy: &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}}},
		{[]string{"-telemetry", "127.0.0.1:0"}, defaults, scenario.Setup{}},
	} {
		opts, setup, err := resolve(c.args...)
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(opts, c.wantOpts) {
			t.Errorf("%v: options %+v, want %+v", c.args, opts, c.wantOpts)
		}
		if !reflect.DeepEqual(setup, c.wantSetup) {
			t.Errorf("%v: setup %+v, want %+v", c.args, setup, c.wantSetup)
		}
	}

	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-target", "bogus"}, `unknown measure "bogus"`},
		{[]string{"-vr", "bogus"}, `unknown variance-reduction mode "bogus"`},
		{[]string{"-cells", "8"}, "unsupported cluster size 8"},
		{[]string{"-partition", "locality:2"}, "-partition needs -shards > 1 (got -shards 1)"},
		{[]string{"-partition", "bogus:3", "-shards", "2"}, `-partition: partition: invalid partition: unknown kind "bogus"`},
		{[]string{"-scenario", "nosuch"}, `unknown preset "nosuch"`},
		{[]string{"-trace", traceFile + ".missing"}, "no such file"},
		{[]string{"-guard", "2"}, "need -policy"},
		{[]string{"-policy", "roundrobin"}, `unknown policy name "roundrobin"`},
		{[]string{"-telemetry", "bogus"}, "telemetry: "},
	} {
		if _, _, err := resolve(c.args...); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.wantErr)
		}
	}
}

// TestResolveScenario pins the command-line scenario rules: nothing set
// resolves to nil, a file wins over a preset name, and a trace replaces the
// temporal profile of the selected scenario, naming an unnamed one "trace".
func TestResolveScenario(t *testing.T) {
	if spec, err := resolveScenario("", "", ""); spec != nil || err != nil {
		t.Errorf("no flags: got %+v, %v; want nil, nil", spec, err)
	}
	file, trace := writeFiles(t)
	cases := []struct {
		name, file, trace string
		wantName          string
		wantSpatial       string
		wantTrace         bool
	}{
		{"hotspot", "", "", "hotspot", scenario.Hotspot, false},
		{"hotspot", file, "", "", scenario.Gradient, false},
		{"hotspot", "", trace, "hotspot", scenario.Hotspot, true},
		{"", file, trace, "trace", scenario.Gradient, true},
		{"", "", trace, "trace", "", true},
	}
	for _, c := range cases {
		spec, err := resolveScenario(c.name, c.file, c.trace)
		if err != nil {
			t.Fatalf("resolveScenario(%q, %q, %q): %v", c.name, c.file, c.trace, err)
		}
		if spec.Name != c.wantName || spec.Spatial.Kind != c.wantSpatial || (spec.Temporal.Kind == scenario.Trace) != c.wantTrace {
			t.Errorf("resolveScenario(%q, %q, %q) = name %q, spatial %q, temporal %q",
				c.name, c.file, c.trace, spec.Name, spec.Spatial.Kind, spec.Temporal.Kind)
		}
	}
	if _, err := resolveScenario("nosuch", "", ""); err == nil {
		t.Error("an unknown preset resolved")
	}
}

// TestPolicyFromFlags pins the command-line policy rules: no -policy keeps
// the scenario's (nil) but refuses orphan parameters, "none" is an explicit
// reset, and a named policy is validated without a channel plan.
func TestPolicyFromFlags(t *testing.T) {
	cases := []struct {
		name            string
		guard, queueCap int
		deadline        float64
		want            *policy.Config
		wantErr         string
	}{
		{"", 0, 0, 0, nil, ""},
		{"", 2, 0, 0, nil, "need -policy"},
		{"none", 0, 0, 0, &policy.Config{}, ""},
		{"guard", 25, 0, 0, &policy.Config{Kind: policy.GuardChannels, Guard: 25}, ""},
		{"queue", 0, 4, 5, &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}, ""},
		{"queue", 0, 4, 0, nil, "queue deadline"},
		{"retry", 1, 0, 0, nil, "guard channels 1 set"},
		{"roundrobin", 0, 0, 0, nil, "unknown policy name"},
	}
	for _, c := range cases {
		got, err := policyFromFlags(c.name, c.guard, c.queueCap, c.deadline)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("policyFromFlags(%q, %d, %d, %v) error %v, want one containing %q",
					c.name, c.guard, c.queueCap, c.deadline, err, c.wantErr)
			}
			continue
		}
		if err != nil || (got == nil) != (c.want == nil) || (got != nil && *got != *c.want) {
			t.Errorf("policyFromFlags(%q, %d, %d, %v) = %+v, %v; want %+v",
				c.name, c.guard, c.queueCap, c.deadline, got, err, c.want)
		}
	}
}
