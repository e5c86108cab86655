// Package repro is a from-scratch Go reproduction of Lindemann & Thümmler,
// "Performance analysis of the general packet radio service": a
// continuous-time Markov chain model of the radio interface of an integrated
// GSM/GPRS cell, the substrates it relies on (Erlang loss systems, the 3GPP
// packet-session traffic model, the radio interface abstraction, a
// matrix-free CTMC solver), the detailed network-level discrete-event simulator with
// TCP flow control used to validate the model, and a parallel replication
// engine (internal/runner) that merges independent simulator runs into
// cross-replication confidence intervals.
//
// The implementation lives under internal/; the runnable entry points are the
// commands under cmd/ and the examples under examples/. The benchmark harness
// in bench_test.go regenerates every table and figure of the paper's
// evaluation at a reduced "quick" fidelity; the command
// cmd/gprs-experiments regenerates them at the paper's parameter setting.
package repro
