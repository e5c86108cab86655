package probe

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime is the wall-clock metrics registry of the process: monotonic
// counters and gauges every layer of the engine stack publishes while work
// is in flight — events executed, shard windows and barrier cost, event-pool
// reuse, replication progress and adaptive-stop state. All fields are
// atomics, updated at coarse boundaries (batch ends, window barriers,
// replication completions) so the event hot path never touches them, and
// publishing never allocates. The package-level Default registry feeds the
// expvar snapshot served by ServeTelemetry.
type Runtime struct {
	// EventsProcessed counts simulation events executed across all runs,
	// published at batch and probe-window boundaries.
	EventsProcessed atomic.Uint64
	// RunsStarted and RunsCompleted count single simulator runs (one
	// replication is one run).
	RunsStarted, RunsCompleted atomic.Uint64

	// ReplicationsPlanned and ReplicationsDone track the replication
	// runner's progress; Planned grows with adaptive batches.
	ReplicationsPlanned, ReplicationsDone atomic.Uint64
	// AdaptiveRelHW holds the latest realized relative confidence
	// half-width of an adaptive run's target measure, as math.Float64bits.
	AdaptiveRelHW atomic.Uint64
	// AdaptiveConverged is 1 when the latest adaptive run met its precision
	// target, 0 otherwise.
	AdaptiveConverged atomic.Uint64

	// WindowsAdvanced and MessagesMerged count the shard engine's
	// synchronization windows and barrier-merged messages. A one-group run
	// adds one window per advance target and no messages.
	WindowsAdvanced, MessagesMerged atomic.Uint64
	// WindowNanos, AdvanceNanos and BarrierWaitNanos decompose the shard
	// engine's wall time: WindowNanos is total wall time per window
	// (dispatch through barrier), AdvanceNanos the sum of per-shard advance
	// work, and BarrierWaitNanos the sum over shards of (window wall time -
	// that shard's advance time) — the idle-plus-merge cost the lookahead
	// barrier imposes.
	WindowNanos, AdvanceNanos, BarrierWaitNanos atomic.Uint64

	// PoolHits and PoolMisses count event-record freelist reuse versus
	// fresh allocations across all calendars, published at run end.
	PoolHits, PoolMisses atomic.Uint64
	// FreeEvents is a gauge: the pooled (recycled, reusable) event records
	// of the most recently completed run's calendars.
	FreeEvents atomic.Uint64

	// mu guards groupEvents, the registry's only non-scalar field; it is
	// written once per completed run, never on the event hot path.
	mu sync.Mutex
	// groupEvents is a latest-run gauge like FreeEvents: the per-group
	// processed-event counts of the most recently completed run, indexed by
	// partition group (one element for a one-group run). Empty until a run
	// completes.
	groupEvents []uint64

	start time.Time
}

// Default is the process-wide registry the engine layers publish into and
// the telemetry endpoint serves.
var Default = NewRuntime()

// NewRuntime returns a registry with its rate origin set to now.
func NewRuntime() *Runtime {
	return &Runtime{start: time.Now()}
}

// SetAdaptive records the outcome of an adaptive-replication evaluation.
func (r *Runtime) SetAdaptive(relHalfWidth float64, converged bool) {
	r.AdaptiveRelHW.Store(math.Float64bits(relHalfWidth))
	var c uint64
	if converged {
		c = 1
	}
	r.AdaptiveConverged.Store(c)
}

// SetGroupEvents records the per-group processed-event counts of the most
// recently completed run (a latest-run gauge, like FreeEvents): every run
// publishes them, a one-group run as a single element. The slice is copied.
func (r *Runtime) SetGroupEvents(counts []uint64) {
	copied := append([]uint64(nil), counts...)
	r.mu.Lock()
	r.groupEvents = copied
	r.mu.Unlock()
}

// GroupEvents returns a copy of the latest run's per-group event counts, or
// nil when no run has completed.
func (r *Runtime) GroupEvents() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groupEvents == nil {
		return nil
	}
	return append([]uint64(nil), r.groupEvents...)
}

// Snapshot is a point-in-time copy of a Runtime registry with derived rates,
// shaped for JSON (the expvar endpoint serves one per scrape).
type Snapshot struct {
	UptimeSec           float64 `json:"uptime_sec"`
	EventsProcessed     uint64  `json:"events_processed"`
	EventsPerSec        float64 `json:"events_per_sec"`
	RunsStarted         uint64  `json:"runs_started"`
	RunsCompleted       uint64  `json:"runs_completed"`
	ReplicationsPlanned uint64  `json:"replications_planned"`
	ReplicationsDone    uint64  `json:"replications_done"`
	AdaptiveRelHW       float64 `json:"adaptive_rel_half_width"`
	AdaptiveConverged   bool    `json:"adaptive_converged"`
	WindowsAdvanced     uint64  `json:"windows_advanced"`
	MessagesMerged      uint64  `json:"messages_merged"`
	WindowNanos         uint64  `json:"window_nanos"`
	AdvanceNanos        uint64  `json:"advance_nanos"`
	BarrierWaitNanos    uint64  `json:"barrier_wait_nanos"`
	// BarrierWaitFrac is BarrierWaitNanos relative to the total per-shard
	// window time — the fraction of shard wall time lost to the barrier.
	BarrierWaitFrac float64 `json:"barrier_wait_frac"`
	PoolHits        uint64  `json:"pool_hits"`
	PoolMisses      uint64  `json:"pool_misses"`
	// PoolHitRate is PoolHits / (PoolHits + PoolMisses).
	PoolHitRate float64 `json:"pool_hit_rate"`
	FreeEvents  uint64  `json:"free_events"`
	// GroupEvents is the per-partition-group event breakdown of the most
	// recently completed run (one element for a one-group run); absent until
	// a run completes.
	GroupEvents []uint64 `json:"group_events,omitempty"`
}

// Snapshot captures the registry with derived rates.
func (r *Runtime) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSec:           time.Since(r.start).Seconds(),
		EventsProcessed:     r.EventsProcessed.Load(),
		RunsStarted:         r.RunsStarted.Load(),
		RunsCompleted:       r.RunsCompleted.Load(),
		ReplicationsPlanned: r.ReplicationsPlanned.Load(),
		ReplicationsDone:    r.ReplicationsDone.Load(),
		AdaptiveRelHW:       math.Float64frombits(r.AdaptiveRelHW.Load()),
		AdaptiveConverged:   r.AdaptiveConverged.Load() == 1,
		WindowsAdvanced:     r.WindowsAdvanced.Load(),
		MessagesMerged:      r.MessagesMerged.Load(),
		WindowNanos:         r.WindowNanos.Load(),
		AdvanceNanos:        r.AdvanceNanos.Load(),
		BarrierWaitNanos:    r.BarrierWaitNanos.Load(),
		PoolHits:            r.PoolHits.Load(),
		PoolMisses:          r.PoolMisses.Load(),
		FreeEvents:          r.FreeEvents.Load(),
		GroupEvents:         r.GroupEvents(),
	}
	if s.UptimeSec > 0 {
		s.EventsPerSec = float64(s.EventsProcessed) / s.UptimeSec
	}
	if total := s.AdvanceNanos + s.BarrierWaitNanos; total > 0 {
		s.BarrierWaitFrac = float64(s.BarrierWaitNanos) / float64(total)
	}
	if total := s.PoolHits + s.PoolMisses; total > 0 {
		s.PoolHitRate = float64(s.PoolHits) / float64(total)
	}
	return s
}
