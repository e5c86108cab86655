package experiments

import (
	"sync"

	"repro/internal/core"
)

// solveKey identifies one steady-state solution: the full analytical
// configuration plus the solver setting. core.Config is a flat comparable
// value (no pointers or slices), so it can key a map directly.
type solveKey struct {
	cfg           core.Config
	tolerance     float64
	maxIterations int
}

// solveEntry is a single-flight cache slot: the first caller computes the
// solution inside the once, later callers (including concurrent ones) wait on
// it and share the result.
type solveEntry struct {
	once sync.Once
	meas core.Measures
	err  error
}

// solveCache memoizes solved (configuration, tolerance) pairs across the
// figures of one experiment run. Each figure row solves a grid point once
// for all its panels, and the rows sweep overlapping parameter grids —
// figure 6 shares its (fraction, rate) grid with figure 15 and with the
// 1-PDCH curves of figures 11-13 — so the cache serves those points from the
// first row that solved them. Entries are never evicted: a full
// paper-resolution run is a few thousand solutions, each a few KB of
// measures.
type solveCache struct {
	mu      sync.Mutex
	entries map[solveKey]*solveEntry
	hits    int64
	misses  int64
}

func newSolveCache() *solveCache {
	return &solveCache{entries: make(map[solveKey]*solveEntry)}
}

// solve returns the memoized solution for the key, computing it with fn on
// the first request. Concurrent requests for the same key block on the first
// computation rather than duplicating it; the waiting task's limiter token
// stays held, which slightly under-uses the pool but cannot deadlock (the
// computing task never needs a second token).
func (c *solveCache) solve(key solveKey, fn func() (core.Measures, error)) (core.Measures, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &solveEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.meas, e.err = fn() })
	return e.meas, e.err
}

// stats returns the hit and miss counters.
func (c *solveCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
