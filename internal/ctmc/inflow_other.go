//go:build !amd64

package ctmc

// haveKernel is false: off amd64, inflow always takes inflowLoop.
var haveKernel = false

// inflowKernel is inflowLoop off amd64, which has no kernel.
func inflowKernel(x, pi []float64, from []jump) { inflowLoop(x, pi, from) }
