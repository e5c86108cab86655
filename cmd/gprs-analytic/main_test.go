package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// smallArgs is a 240-state configuration that solves in milliseconds.
var smallArgs = []string{"-channels", "4", "-buffer", "5", "-sessions", "3"}

func TestRunPrintsSolverLine(t *testing.T) {
	var out bytes.Buffer
	if err := run(smallArgs, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "240 states") {
		t.Errorf("output does not name the 240-state space:\n%s", out.String())
	}
	var solver string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "solver ") {
			solver = line
		}
	}
	if !strings.Contains(solver, "line Gauss–Seidel") || !strings.Contains(solver, "iterations") {
		t.Errorf("solver line = %q, want the solver named and its sweep count", solver)
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
