package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// smallArgs is a 240-state configuration that solves in milliseconds.
var smallArgs = []string{"-channels", "4", "-buffer", "5", "-sessions", "3"}

// solverLine runs gprs-analytic with args and returns its output, its
// solver line, and the sweep count and relaxation factor that line reports.
func solverLine(t *testing.T, args []string) (out, line string, sweeps int, omega float64) {
	t.Helper()
	var b bytes.Buffer
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "solver ") {
			line = l
		}
	}
	_, rest, _ := strings.Cut(line, "line Gauss–Seidel, ")
	if _, err := fmt.Sscanf(rest, "%d iterations, relaxation %g,", &sweeps, &omega); err != nil {
		t.Fatalf("solver line = %q, want the solver named, its sweep count and its relaxation factor: %v", line, err)
	}
	return out, line, sweeps, omega
}

func TestRunPrintsSolverLine(t *testing.T) {
	out, line, sweeps, omega := solverLine(t, smallArgs)
	if !strings.Contains(out, "240 states") {
		t.Errorf("output does not name the 240-state space:\n%s", out)
	}
	if sweeps < 1 || !(omega >= 1 && omega < 2) || !strings.Contains(line, "residual") {
		t.Errorf("solver line = %q, want a sweep count, a relaxation factor in [1, 2) and the residual", line)
	}
}

// TestRunConvergesBefore20Sweeps checks a cell without voice, whose start
// is all but its solution: the convergence test, made after every sweep
// from the tenth on, stops it before the 20 sweeps that a test made every
// tenth sweep, from the second check on, needed.
func TestRunConvergesBefore20Sweeps(t *testing.T) {
	_, line, sweeps, _ := solverLine(t, append(append([]string(nil), smallArgs...), "-gprs", "1"))
	if sweeps >= 20 {
		t.Errorf("solver line = %q, want fewer than 20 iterations", line)
	}
}

func TestRunFailsWhenNotConverged(t *testing.T) {
	var out bytes.Buffer
	err := run(append(smallArgs, "-tol", "1e-30"), &out)
	if !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("run with -tol 1e-30: got %v, want core.ErrNotConverged", err)
	}
	if strings.Contains(out.String(), "carried data traffic") {
		t.Errorf("measures printed for an unconverged solve:\n%s", out.String())
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	var out bytes.Buffer
	err := run(append(smallArgs, "-model", "7"), &out)
	if !errors.Is(err, traffic.ErrInvalidParameter) || err.Error() != "traffic: invalid parameter: traffic model 7 is outside 1..3" {
		t.Fatalf("run with -model 7: got %v, want traffic.ErrInvalidParameter naming model 7 and 1..3", err)
	}
	if out.Len() != 0 {
		t.Errorf("run with -model 7 printed before failing:\n%s", out.String())
	}
}

// TestRunRejectsBadFlags checks that each bad flag value fails before
// anything is printed or solved.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "0"}, "absorbing"},
		{[]string{"-sessions", "-3"}, "sessions must be at least 0, got -3"},
		{[]string{"-tol", "-1"}, "tol must lie in (0, 1), got -1"},
		{[]string{"-tol", "0"}, "tol must lie in (0, 1), got 0"},
		{[]string{"-tol", "2"}, "tol must lie in (0, 1), got 2"},
	} {
		var out bytes.Buffer
		err := run(append(append([]string(nil), smallArgs...), c.args...), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run with %v: got %v, want an error containing %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run with %v printed before failing:\n%s", c.args, out.String())
		}
	}
}
