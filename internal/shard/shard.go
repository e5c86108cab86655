// Package shard is a conservative parallel discrete-event engine. A
// simulation is partitioned into logical processes, each owning a private
// event calendar; processes interact only through timestamped messages whose
// delivery delay is bounded below by a known lookahead. The engine advances
// all processes in bounded time windows no longer than the lookahead: inside
// a window every process runs independently (processes are grouped into
// shards, one worker per shard), and at the window barrier the messages
// produced by the window are merged and handed to their destination
// processes.
//
// # Determinism contract
//
// For a fixed (model, lookahead) the engine produces bit-identical results
// across every shard layout and worker count — including Shards = 1, the
// serial special case. Three mechanisms combine to guarantee this:
//
//   - Lookahead window: the window length never exceeds the minimum
//     cross-process message delay (for internal/sim, the handover latency
//     HandoverLatencySec). A message sent at time t arrives no earlier than
//     t + lookahead, so no message can arrive inside the window that
//     produced it, and every process's intra-window execution is
//     independent of all concurrent processes. A lone process has no peer,
//     so its window runs straight to the AdvanceTo target.
//
//   - Deterministic merge order: at the window barrier, the messages of the
//     finished window are sorted by (timestamp, source process id,
//     per-source sequence number) before delivery. Every source numbers its
//     messages with a strictly increasing counter, so the sort key is a
//     total order and the delivery sequence never depends on which worker
//     finished first.
//
//   - Process-private state: Advance and Deliver are never invoked
//     concurrently for one process, and processes share no mutable state
//     (in internal/sim, every cell also draws from its own random variate
//     substreams), so a process's sample path depends only on its own
//     calendar and the merged message sequence.
//
// Violations of the lookahead bound are detected at the barrier and
// reported as ErrLookaheadViolated rather than silently reordering events.
//
// The package is model-agnostic: internal/sim builds its multi-cell GPRS
// simulator on top of it with one process per cell group (a single process
// for the one-group simulator) and cross-group handovers as the
// cross-process messages, the minimum handover latency serving as lookahead.
// The contract holds for every workload the model expresses — internal/sim
// exercises it under uniform, hotspot, gradient, and time-varying arrival
// scenarios (internal/scenario), whose rate profiles are pure functions and
// therefore shard-invariant.
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/probe"
)

// ErrInvalidEngine is returned for malformed engine configurations.
var ErrInvalidEngine = errors.New("shard: invalid engine configuration")

// ErrLookaheadViolated is returned when a process emits a message that would
// arrive inside the window that produced it, breaking the conservative
// synchronization contract.
var ErrLookaheadViolated = errors.New("shard: lookahead violated")

// Message is a timestamped payload travelling between processes.
type Message struct {
	// At is the absolute simulation time the message takes effect at the
	// destination. It must be no earlier than the end of the window in which
	// the message was produced (guaranteed when the sender applies a delay
	// of at least the engine lookahead; rounding may land At exactly on the
	// window end, where delivery is still safe).
	At float64
	// Src and Dst are the producing and receiving process indices.
	Src, Dst int
	// Seq orders messages of one source: sources number their messages with a
	// strictly increasing counter so ties in (At, Src) break deterministically.
	Seq uint64
	// Payload is the model-defined content.
	Payload any
}

// Process is one logical process of the partitioned simulation: a private
// event calendar plus the model state driven by it. Advance and Deliver are
// never called concurrently for the same process, but distinct processes are
// advanced in parallel, so processes must not share mutable state.
type Process interface {
	// Advance executes the process's calendar up to and including time t and
	// returns the messages produced while doing so. The returned slice is
	// consumed before the next Advance call.
	Advance(t float64) []Message
	// Deliver hands the process an inbound message; the process schedules it
	// on its calendar for time m.At (which is at or beyond its current
	// clock).
	Deliver(m Message)
}

// Limiter bounds how many shards of this engine (or of several engines
// sharing the limiter, e.g. the replications of one experiment) advance
// concurrently. runner.Limiter satisfies the interface.
type Limiter interface {
	Acquire()
	Release()
}

// Options configures an Engine.
type Options struct {
	// Lookahead is the window length: the minimum cross-process message
	// delay. It must be positive.
	Lookahead float64
	// Shards is the number of process groups advanced in parallel; the zero
	// value means min(runtime.NumCPU(), number of processes). 1 advances all
	// processes on the calling goroutine. The grouping never affects results,
	// only the available parallelism.
	Shards int
	// Limiter, when non-nil, is acquired by each shard for the duration of
	// one window's work, so shard-level parallelism composes with outer
	// fan-outs (replications, sweep points) under one shared bound. Shards
	// never hold a token while waiting at the window barrier, so sharing a
	// limiter cannot deadlock.
	Limiter Limiter
	// Metrics, when non-nil, receives wall-clock window timings: windows
	// advanced, messages merged, total window wall time, summed per-shard
	// advance time, and the barrier wait (the sum over shards of window wall
	// time minus that shard's own advance time — idle-plus-merge cost). The
	// engine reads the clock only when Metrics is set, so a disarmed engine
	// pays nothing. Simulation results are unaffected either way.
	Metrics *probe.Runtime
}

// Stats are the cumulative synchronization counters of one engine, tracked
// unconditionally (they are two integer increments per window): the windows
// advanced and the cross-process messages merged at their barriers. Together
// with the models' own flow counters they make the barrier traffic auditable —
// for internal/sim, MergedMessages must equal the cells' summed handover
// departures.
type Stats struct {
	// Windows is the number of synchronization windows completed.
	Windows uint64
	// MergedMessages is the number of cross-process messages merged and
	// delivered at window barriers.
	MergedMessages uint64
}

// Engine advances a set of processes in conservative time windows.
type Engine struct {
	procs  []Process
	opt    Options
	groups [][]int // shard index -> process indices
	now    float64
	err    error
	stats  Stats

	merged []Message // reusable barrier buffer
}

// New validates the options and builds an engine over the given processes.
func New(procs []Process, opt Options) (*Engine, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("%w: no processes", ErrInvalidEngine)
	}
	if opt.Lookahead <= 0 || math.IsNaN(opt.Lookahead) || math.IsInf(opt.Lookahead, 0) {
		return nil, fmt.Errorf("%w: lookahead %v", ErrInvalidEngine, opt.Lookahead)
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.NumCPU()
	}
	if opt.Shards > len(procs) {
		opt.Shards = len(procs)
	}
	// Contiguous blocks of near-equal size; the split is cosmetic for
	// results (any grouping yields identical output) but balances work.
	groups := make([][]int, opt.Shards)
	for i := range procs {
		g := i * opt.Shards / len(procs)
		groups[g] = append(groups[g], i)
	}
	return &Engine{procs: procs, opt: opt, groups: groups}, nil
}

// Stats returns the engine's cumulative synchronization counters.
func (e *Engine) Stats() Stats { return e.stats }

// AdvanceTo runs windows of at most Lookahead until the engine clock reaches
// t, exchanging messages at every window barrier. An engine with a single
// process runs one window straight to t: no other process can send it a
// message, and the barrier still rejects a self-addressed message timed
// before t. AdvanceTo returns the first synchronization error encountered
// (and keeps returning it on later calls).
func (e *Engine) AdvanceTo(t float64) error {
	if e.err != nil {
		return e.err
	}
	if len(e.groups) == 1 {
		e.advanceSerial(t)
		return e.err
	}
	e.advanceParallel(t)
	return e.err
}

func (e *Engine) advanceSerial(t float64) {
	out := make([][]Message, 1)
	adv := make([]time.Duration, 1)
	// One persistent window buffer: the barrier copies messages into its own
	// merge buffer before the next window reuses this one.
	var msgs []Message
	for e.now < t && e.err == nil {
		next := t
		if len(e.procs) > 1 {
			next = math.Min(e.now+e.opt.Lookahead, t)
		}
		var windowStart, advStart time.Time
		if e.opt.Metrics != nil {
			windowStart = time.Now()
		}
		if e.opt.Limiter != nil {
			e.opt.Limiter.Acquire()
		}
		if e.opt.Metrics != nil {
			advStart = time.Now()
		}
		msgs = msgs[:0]
		for _, p := range e.procs {
			msgs = append(msgs, p.Advance(next)...)
		}
		if e.opt.Metrics != nil {
			adv[0] = time.Since(advStart)
		}
		if e.opt.Limiter != nil {
			e.opt.Limiter.Release()
		}
		out[0] = msgs
		e.barrier(next, out)
		e.publishWindow(windowStart, adv)
	}
}

func (e *Engine) advanceParallel(t float64) {
	n := len(e.groups)
	cmds := make([]chan float64, n)
	type result struct {
		shard int
		msgs  []Message
		adv   time.Duration
	}
	results := make(chan result, n)
	for i, group := range e.groups {
		cmds[i] = make(chan float64, 1)
		go func(shard int, group []int, cmd <-chan float64) {
			// One persistent buffer per shard worker: the barrier finishes
			// with it (copies into the merge buffer) before the main loop
			// dispatches the next window command.
			var msgs []Message
			for next := range cmd {
				if e.opt.Limiter != nil {
					e.opt.Limiter.Acquire()
				}
				var advStart time.Time
				if e.opt.Metrics != nil {
					advStart = time.Now()
				}
				msgs = msgs[:0]
				for _, pi := range group {
					msgs = append(msgs, e.procs[pi].Advance(next)...)
				}
				var adv time.Duration
				if e.opt.Metrics != nil {
					adv = time.Since(advStart)
				}
				if e.opt.Limiter != nil {
					e.opt.Limiter.Release()
				}
				results <- result{shard, msgs, adv}
			}
		}(i, group, cmds[i])
	}
	defer func() {
		for _, cmd := range cmds {
			close(cmd)
		}
	}()

	out := make([][]Message, n)
	adv := make([]time.Duration, n)
	for e.now < t && e.err == nil {
		next := math.Min(e.now+e.opt.Lookahead, t)
		var windowStart time.Time
		if e.opt.Metrics != nil {
			windowStart = time.Now()
		}
		for _, cmd := range cmds {
			cmd <- next
		}
		for i := 0; i < n; i++ {
			r := <-results
			out[r.shard] = r.msgs
			adv[r.shard] = r.adv
		}
		e.barrier(next, out)
		e.publishWindow(windowStart, adv)
	}
}

// publishWindow pushes one finished window's wall timings into the metrics
// registry: total window wall time, the summed per-shard advance time, and
// the barrier wait — for every shard, the window wall time minus that shard's
// own advance work (time spent idle at the barrier, waiting on slower shards
// and the merge). No-op without an armed Metrics registry.
func (e *Engine) publishWindow(windowStart time.Time, adv []time.Duration) {
	m := e.opt.Metrics
	if m == nil {
		return
	}
	window := time.Since(windowStart)
	var advSum, wait time.Duration
	for _, a := range adv {
		advSum += a
		if w := window - a; w > 0 {
			wait += w
		}
	}
	m.WindowNanos.Add(uint64(window.Nanoseconds()))
	m.AdvanceNanos.Add(uint64(advSum.Nanoseconds()))
	m.BarrierWaitNanos.Add(uint64(wait.Nanoseconds()))
}

// barrier merges the messages of one finished window in deterministic order
// and delivers them, then advances the engine clock to the window end.
func (e *Engine) barrier(windowEnd float64, out [][]Message) {
	e.merged = e.merged[:0]
	for _, msgs := range out {
		e.merged = append(e.merged, msgs...)
	}
	e.stats.Windows++
	e.stats.MergedMessages += uint64(len(e.merged))
	if m := e.opt.Metrics; m != nil {
		m.WindowsAdvanced.Add(1)
		m.MessagesMerged.Add(uint64(len(e.merged)))
	}
	// slices.SortFunc rather than sort.Slice: the latter goes through
	// reflection and allocates per call, which would put the barrier on the
	// allocator once per window.
	slices.SortFunc(e.merged, func(a, b Message) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		if a.Seq != b.Seq {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	for _, m := range e.merged {
		// Equality is allowed: a sender one ulp past the window start can
		// have its fl(send time + lookahead) round down to exactly the
		// window end, and delivering at the barrier time is still safe —
		// every process clock is pinned to windowEnd, so the message fires
		// first thing in the next window.
		if m.At < windowEnd {
			e.err = fmt.Errorf("%w: message from %d to %d at %v produced in window ending %v",
				ErrLookaheadViolated, m.Src, m.Dst, m.At, windowEnd)
			return
		}
		if m.Dst < 0 || m.Dst >= len(e.procs) {
			e.err = fmt.Errorf("%w: message from %d to out-of-range process %d", ErrInvalidEngine, m.Src, m.Dst)
			return
		}
		e.procs[m.Dst].Deliver(m)
	}
	e.now = windowEnd
}
