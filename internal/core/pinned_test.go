// Go fuses no multiply–add on amd64 below v3, so the solve's arithmetic is
// fixed there and its results can be pinned bit for bit.

//go:build amd64 && !amd64.v3

package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/ctmc"
)

// TestQuickFig6SolveIsPinned solves the twelve Quick Fig. 6 points to 1e-6,
// fractions in the outer loop and rates in the inner, and pins what they
// give bit for bit: 320 sweeps in all, the FNV-64a digest of every π entry
// as 8 little-endian bytes, and that of every Measures field likewise. A
// change to the solve that only reorders work must leave all three as they
// are. The solve takes inflow's default path, the AVX2 kernel on a CPU that
// has it; ctmc's TestQuickFig6SolveIsPinnedOnGoLoop pins the same three
// values on the Go loop, and a re-pin changes both tests.
func TestQuickFig6SolveIsPinned(t *testing.T) {
	const (
		sweeps        = 320
		piDigest      = 0xd1db0e59f900066e
		measureDigest = 0x3f3b799a2c667e4d
	)
	pi, measures := fnv.New64a(), fnv.New64a()
	total := 0
	for _, p := range quickFig6Points() {
		model, err := New(quickFig6Config(p[0], p[1]))
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
	if total != sweeps {
		t.Errorf("Quick Fig. 6 took %d sweeps, want %d", total, sweeps)
	}
	if got := pi.Sum64(); got != piDigest {
		t.Errorf("π digest %#x, want %#x", got, uint64(piDigest))
	}
	if got := measures.Sum64(); got != measureDigest {
		t.Errorf("measures digest %#x, want %#x", got, uint64(measureDigest))
	}
}

// writeFloat feeds x to h as 8 little-endian bytes.
func writeFloat(h hash.Hash64, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}
