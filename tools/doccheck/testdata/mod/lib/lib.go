// Package lib holds the exports the unused-export check is tested on.
package lib

// Counter counts.
type Counter struct{ n int }

// Add is used: cmd calls it.
func (c *Counter) Add() { c.n++ }

// Gauge holds a level.
type Gauge struct{ v int }

// Add is unused: only lib_test.go calls it, and the call of Counter.Add,
// a method of the same name, must not keep it alive.
func (g *Gauge) Add() { g.v++ }

// Level is used: cmd calls it through an interface literal.
func (g *Gauge) Level() int { return g.v }

// Kept is unused but allowlisted.
func Kept() {}
