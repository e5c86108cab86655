package sim

import (
	"fmt"
	"math"
)

// RateProfile supplies per-cell, time-dependent fresh-arrival rates to the
// simulator, generalizing the homogeneous load of the paper (every cell sees
// the same constant TotalCallRate) to heterogeneous scenarios: hotspot cells,
// load gradients, busy-hour ramps. Profiles are piecewise constant in time:
// the rates returned for time t hold on [t, NextChange(t)).
//
// Implementations must be pure functions of (cell, t) and safe for concurrent
// read-only use — a multi-group simulator queries the profile from several
// shard workers at once, and the replication runner shares one profile across
// all replications. Because each cell draws its arrivals from its own random
// variate stream and the profile is deterministic, every partitioning stays
// bit-identical under every profile.
//
// internal/scenario compiles declarative workload scenarios (named spatial
// shapes crossed with temporal profiles) into RateProfile values.
type RateProfile interface {
	// Rates returns the fresh GSM voice-call and GPRS session arrival rates
	// (per second) seen by the given cell at simulation time t. Both rates
	// are constant on [t, NextChange(t)).
	Rates(cell int, t float64) (voiceRate, dataRate float64)
	// NextChange returns the earliest time strictly after t at which any
	// cell's rates change, or +Inf when the rates stay constant forever.
	NextChange(t float64) float64
}

// uniformRates is the default profile: every cell sees the same constant
// voice and data arrival rates — the paper's symmetric load.
type uniformRates struct {
	voice, data float64
}

func (u uniformRates) Rates(int, float64) (float64, float64) { return u.voice, u.data }
func (u uniformRates) NextChange(float64) float64            { return math.Inf(1) }

// BaseRates splits the configured aggregate call arrival rate into the fresh
// voice-call and GPRS-session rates of one cell: (1-GPRSFraction) and
// GPRSFraction of TotalCallRate. It is the single place this split is
// computed, so a uniform RateProfile built from these values reproduces the
// profile-less simulator bit for bit.
func (c Config) BaseRates() (voiceRate, dataRate float64) {
	return (1 - c.GPRSFraction) * c.TotalCallRate, c.GPRSFraction * c.TotalCallRate
}

// validateRates spot-checks a configured profile: a profile that knows its
// cell count (scenario.Profile does) must match the topology — a profile
// compiled for a smaller cluster would silently zero the extra cells'
// traffic — and every cell's rates at time 0 must be finite and
// non-negative.
func validateRates(p RateProfile, cells int) error {
	if sized, ok := p.(interface{ NumCells() int }); ok {
		if got := sized.NumCells(); got != cells {
			return fmt.Errorf("%w: rate profile compiled for %d cells, topology has %d", ErrInvalidConfig, got, cells)
		}
	}
	for i := 0; i < cells; i++ {
		v, d := p.Rates(i, 0)
		for _, r := range [...]struct {
			name string
			v    float64
		}{{"voice", v}, {"data", d}} {
			if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
				return fmt.Errorf("%w: %s rate %v in cell %d", ErrInvalidConfig, r.name, r.v, i)
			}
		}
	}
	return nil
}
