package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
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
