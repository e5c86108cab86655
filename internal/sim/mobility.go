package sim

import (
	"fmt"
	"math"
)

// MobilityProfile supplies per-cell, time-dependent dwell-time multipliers to
// the simulator, generalizing the paper's single exponential dwell time per
// service to spatially and temporally skewed mobility: slow pedestrians in a
// hotspot (multipliers above 1), fast vehicles on a highway corridor
// (multipliers below 1). The multiplier scales the mean of the exponential
// dwell of both services in the session's current cell; handover latency and
// target selection are unaffected, so the shard engine's conservative
// lookahead (HandoverLatencySec) stays valid under every profile.
//
// Profiles are piecewise constant in time — the multiplier returned for time
// t holds on [t, NextChange(t)) — which the simulator's boundary-re-arming
// dwell sampler relies on for exactness, exactly like the arrival generator
// relies on the RateProfile contract. Implementations must be pure functions
// of (cell, t), strictly positive, and safe for concurrent read-only use:
// a multi-group simulator queries one profile from several shard workers at
// once, and each cell draws its dwell times from its own random variate
// stream, so every partitioning stays bit-identical under every profile.
//
// internal/scenario compiles declarative mobility shapes (hotspot, gradient,
// highway corridors crossed with temporal profiles) into MobilityProfile
// values.
type MobilityProfile interface {
	// Multiplier returns the dwell-time multiplier of the given cell at
	// simulation time t, constant on [t, NextChange(t)). Multiplier 1 is the
	// paper's baseline dwell time; values must be strictly positive and
	// finite.
	Multiplier(cell int, t float64) float64
	// NextChange returns the earliest time strictly after t at which any
	// cell's multiplier changes, or +Inf when the multipliers stay constant
	// forever.
	NextChange(t float64) float64
}

// validateMobility spot-checks a configured mobility profile: a profile that
// knows its cell count (scenario.DwellProfile does) must match the topology,
// and every cell's multiplier at time 0 must be finite and strictly positive
// — a zero multiplier would mean a zero mean dwell time, an infinite
// handover rate.
func validateMobility(p MobilityProfile, cells int) error {
	if sized, ok := p.(interface{ NumCells() int }); ok {
		if got := sized.NumCells(); got != cells {
			return fmt.Errorf("%w: mobility profile compiled for %d cells, topology has %d", ErrInvalidConfig, got, cells)
		}
	}
	for i := 0; i < cells; i++ {
		m := p.Multiplier(i, 0)
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("%w: dwell multiplier %v in cell %d", ErrInvalidConfig, m, i)
		}
	}
	return nil
}
