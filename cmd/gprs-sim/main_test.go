package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRunRejectsBadSharedFlags feeds run bad shared simulator flags and
// requires each to fail with the same text as in gprs-experiments, before
// the run header is printed. The short horizon keeps a missed check cheap.
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
		{[]string{"-model", "7"}, `traffic: invalid parameter: traffic model 7 is outside 1..3`},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-warmup", "10", "-measure", "10", "-batches", "2"}, c.args...), &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run %v: error %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", c.args, out.String())
		}
	}
}

// TestRunRejectsOneBatchInOneReplication checks that a single replication
// of one batch, which has no variance estimate and would print ± +Inf on
// every measure, fails with sim.ErrInvalidConfig before the run header.
func TestRunRejectsOneBatchInOneReplication(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-warmup", "10", "-measure", "10", "-batches", "1"}, &out)
	if !errors.Is(err, sim.ErrInvalidConfig) {
		t.Errorf("error %v, want sim.ErrInvalidConfig", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before failing:\n%s", out.String())
	}
}

// TestRunOneBatchPerReplication checks that one batch in each of three
// independent replications is a valid run: the intervals come from the
// replications, and none is infinite.
func TestRunOneBatchPerReplication(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-warmup", "10", "-measure", "10", "-batches", "1", "-replications", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 replication(s)") || !strings.Contains(out.String(), "±") || strings.Contains(out.String(), "Inf") {
		t.Errorf("want finite intervals over 3 replications, got:\n%s", out.String())
	}
}
