package main

import (
	"bytes"
	"testing"
)

// TestRunRejectsBadSharedFlags feeds run bad shared simulator flags and
// requires each to fail with the same text as in gprs-sim, before any table
// or figure is produced. -figure tables keeps a missed check cheap.
func TestRunRejectsBadSharedFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-target", "bogus"}, `sim: unknown measure "bogus" (known: throughput, cdt, plp, qd, atu, ags, cvt, gsm-blocking, gprs-blocking, queue)`},
		{[]string{"-vr", "bogus"}, `runner: unknown variance-reduction mode "bogus" (known: none, antithetic, control)`},
		{[]string{"-cells", "8"}, `cluster: invalid topology: unsupported cluster size 8 (supported: [7 19 37 61 91 127 169 217 271 331])`},
		{[]string{"-guard", "2"}, `-guard/-ho-queue/-ho-deadline need -policy (known: none, guard, queue, retry)`},
		{[]string{"-partition", "locality:2"}, `-partition needs -shards > 1 (got -shards 1)`},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-figure", "tables", "-out", t.TempDir()}, c.args...), &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run %v: error %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", c.args, out.String())
		}
	}
}

// TestRunRejectsHotspotWithoutSimulation requires -figure hotspot -no-sim,
// whose figures plot only simulator series, to fail naming both flags
// before anything is printed or simulated, and an unknown -figure to fail
// listing the known names.
func TestRunRejectsHotspotWithoutSimulation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "hotspot", "-no-sim"}, `-figure hotspot plots only simulator series; it cannot run with -no-sim`},
		{[]string{"-figure", "fig16"}, `unknown figure "fig16" (use all, tables, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, hotspot)`},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-quiet", "-out", t.TempDir()}, c.args...), &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run %v: error %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", c.args, out.String())
		}
	}
}
