// Go fuses no multiply–add on amd64 below v3, so the solve's arithmetic is
// fixed there and its results can be pinned bit for bit.

//go:build amd64 && !amd64.v3

package ctmc_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
)

// TestQuickFig6SolveIsPinnedOnGoLoop is core's TestQuickFig6SolveIsPinned
// with inflow forced onto its Go loop: the twelve Quick Fig. 6 points solved
// to 1e-6, fractions in the outer loop and rates in the inner, must take 320
// sweeps in all and give the same FNV-64a digests of every π entry and of
// every Measures field, each as 8 little-endian bytes. Core's test runs the
// default path, the AVX2 kernel on a CPU that has it, so the two together
// pin both paths. The three values are core's, and a re-pin changes both
// tests.
func TestQuickFig6SolveIsPinnedOnGoLoop(t *testing.T) {
	const (
		sweeps        = 320
		piDigest      = 0xd1db0e59f900066e
		measureDigest = 0x3f3b799a2c667e4d
	)
	kernel := ctmc.InflowKernel()
	ctmc.UseGoLoop(t)
	pi, measures := fnv.New64a(), fnv.New64a()
	total := 0
	for _, fraction := range []float64{0.02, 0.05, 0.10} {
		for _, rate := range []float64{0.1, 0.3, 0.6, 1.0} {
			model, err := core.New(quickFig6Config(fraction, rate))
			if err != nil {
				t.Fatal(err)
			}
			res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Solver.Iterations
			for _, x := range res.Pi {
				writeFloat(pi, x)
			}
			fields := reflect.ValueOf(res.Measures)
			for i := range fields.NumField() {
				writeFloat(measures, fields.Field(i).Float())
			}
		}
	}
	if total != sweeps {
		t.Errorf("Quick Fig. 6 took %d sweeps, want %d", total, sweeps)
	}
	if got := pi.Sum64(); got != piDigest {
		t.Errorf("π digest %#x, want %#x", got, uint64(piDigest))
	}
	if got := measures.Sum64(); got != measureDigest {
		t.Errorf("measures digest %#x, want %#x", got, uint64(measureDigest))
	}
	if kernel {
		t.Log("inflow took the Go loop on every line; core's pin runs the AVX2 kernel")
	} else {
		t.Log("inflow took the Go loop on every line; this CPU has no AVX2, so core's pin runs it too")
	}
}

// writeFloat feeds x to h as 8 little-endian bytes.
func writeFloat(h hash.Hash64, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}
