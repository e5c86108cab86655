// Package runner fans independent replications of the detailed GPRS
// simulator out across a bounded worker pool and merges the per-replication
// results into cross-replication confidence intervals.
//
// The replicate-and-aggregate methodology follows standard steady-state
// simulation practice (and the measurement studies the paper's validation
// rests on): R statistically independent runs are produced from R disjoint
// seed substreams derived from one base seed, the point estimate of every
// performance measure is averaged across the runs, and a Student-t confidence
// interval is computed over the R replication means. Unlike batch means
// within a single run, replication means are independent by construction, so
// the intervals need no warm-up-correlation caveats.
//
// Beyond the paper's fixed replication count, the package supports
// precision-targeted adaptive replication (Options.Precision): replications
// are added in deterministic batches until the relative confidence half-width
// of a chosen target measure drops below the threshold, so cheap sweep points
// stop early and hard ones keep refining — bounded by Options.MinReplications
// and Options.MaxReplications. Two classic variance-reduction schemes reduce
// the number of replications needed for a given precision (Options.VR):
// antithetic-variate pairing of replications and an Erlang-B control-variate
// estimator; see VarianceReduction for the estimator definitions.
//
// # Determinism contract
//
// Results are bit-identical for a given (base seed, replication count)
// regardless of the worker count, the shard count, and the scheduling of
// replications onto workers:
//
//   - SplitMix64 substream seeding: replication i always runs with
//     SeedFor(base, i) = des.SubstreamSeed(base, i), a SplitMix64
//     finalization of the base seed. The derived seeds depend only on
//     (base, i) — never on which worker picks the replication up — and
//     consecutive indices land in well-separated regions of the generator's
//     state space instead of on nearby seeds. (Under antithetic pairing the
//     unit of seeding is the pair: replications 2p and 2p+1 both run with
//     SeedFor(base, p), one on the paired and one on the antithetic stream
//     kind.)
//
//   - Worker-count invariance: results are collected into a slice indexed
//     by replication and the merge folds them in index order, so Workers
//     (and the Limiter sharing that bound across nested fan-outs) only
//     changes wall-clock time. ForEach reports the error of the lowest
//     failing index for the same reason.
//
//   - Partition invariance: Shards > 1 splits each replication's cells
//     into that many groups advanced in parallel, which reproduces the
//     one-group run bit for bit (see the determinism contract of
//     internal/shard), so the group count is also purely a scheduling
//     decision.
//
//   - Stopping-rule determinism: the adaptive mode grows the replication
//     set along the same substream sequence (replication i exists
//     independently of when the loop decided to run it), and the stopping
//     decision is a pure function of the merged results after each batch.
//     Growth batches are sized to the worker pool gating the replication
//     fan-out — half-again growth rounded up to a multiple of the pool
//     width, so a wide machine never ends a batch with most workers idle
//     behind a straggler. The realized replication count — and therefore
//     every reported number — depends only on (configuration, base seed,
//     precision, bounds, VR, pool width), never on how replications are
//     scheduled onto workers: replication i is the same seeded run under
//     every schedule, and whenever two pool widths evaluate the rule at the
//     same boundary (a first batch that already converges, or a run that
//     hits MaxReplications) their results are bit-identical. With the
//     threshold disabled the fixed-R path is taken unchanged, bit for bit.
//
// The package also exposes the generic concurrency primitives the experiment
// harness shares with the replication engine: Limiter, a counting semaphore
// that bounds the number of truly active tasks across nested fan-outs, and
// ForEach, an index-parallel loop with deterministic error selection.
package runner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/des"
	"repro/internal/probe"
	"repro/internal/sim"
)

// SeedFor derives the seed of replication i from the base seed. The
// derivation is a SplitMix64 finalization step (des.SubstreamSeed), so
// consecutive replication indices land in well-separated regions of the
// underlying generator's state space rather than on nearby seeds.
func SeedFor(base int64, i int) int64 {
	return des.SubstreamSeed(base, uint64(i))
}

// Options controls a replicated simulation run.
type Options struct {
	// Replications is the number of independent replications R; the zero
	// value means 1. Ignored when Precision > 0 (the stopping rule decides
	// the count); rounded up to an even count under VRAntithetic.
	Replications int
	// Workers bounds the number of replications simulated concurrently; the
	// zero value means runtime.NumCPU(). Ignored when Limiter is set. In
	// adaptive mode the width of the gating pool also sizes the growth
	// batches (rounded up to a pool multiple), so an explicit Workers pins
	// the stopping boundaries across machines; Workers 1 reproduces the
	// plain half-again growth schedule.
	Workers int
	// BaseSeed is the seed the per-replication substreams are derived from;
	// the zero value means 1.
	BaseSeed int64
	// ConfidenceLevel is the level of the merged intervals; the zero value
	// means the simulator configuration's level (0.95 if that is unset too).
	ConfidenceLevel float64
	// Progress, when non-nil, is called after every completed replication
	// with the number of finished replications and the total planned so far
	// (which grows across adaptive batches). Calls are serialized but may
	// arrive in any replication order.
	Progress func(done, total int)
	// Limiter, when non-nil, is the shared semaphore replications acquire a
	// token from instead of a pool-private one. Callers running several
	// replicated simulations concurrently pass one Limiter so the global
	// number of in-flight simulator runs stays bounded.
	Limiter *Limiter
	// Shards, when > 1, builds every replication with sim.NewSharded: that
	// many cell groups advanced in parallel conservative time windows.
	// Otherwise each replication is sim.New's one group, advanced on its
	// worker's goroutine. Shard-level parallelism composes with
	// replication-level parallelism: the replication fan-out is then gated
	// by Admission (live simulators) while the shard workers of all
	// replications acquire CPU tokens from the shared Limiter, keeping the
	// number of active CPU-bound tasks at the worker bound. Results are
	// bit-identical for every Shards value, so Shards only changes how the
	// work is scheduled.
	Shards int
	// Admission, used only when Shards > 1, bounds how many replications are
	// mid-flight at once — i.e. how many simulators are live, each parked at
	// a window barrier when it holds no Limiter token. It must be a pool
	// distinct from Limiter (a replication may hold an admission token while
	// its shard workers wait for CPU tokens; drawing both from one pool
	// would deadlock). Callers running several replicated simulations
	// concurrently pass one shared Admission so total live simulators stay
	// bounded; when nil, a pool-private limiter of Workers tokens is used.
	Admission *Limiter

	// Precision, when > 0, enables adaptive precision-targeted replication:
	// replications are added in batches until the relative confidence
	// half-width |halfwidth/mean| of the Target measure drops to Precision
	// or below (e.g. 0.05 for a 5% relative half-width), within
	// [MinReplications, MaxReplications]. The zero value disables the
	// stopping rule and runs exactly Replications runs — bit-identical to
	// the fixed-R behaviour.
	Precision float64
	// Target is the measure the stopping rule watches; the zero value is
	// sim.MeasureThroughput. Only an adaptive run consults it, but Run
	// rejects an unknown measure either way.
	Target sim.Measure
	// MinReplications is the replication count of the first adaptive batch;
	// the zero value means 4 (two antithetic pairs). It is floored at 2:
	// the stopping rule compares cross-replication intervals, and a single
	// replication would check its within-run batch-means interval instead —
	// a different, correlated estimator. Ignored when Precision is 0.
	MinReplications int
	// MaxReplications caps the adaptive replication count; the zero value
	// means 64. Ignored when Precision is 0.
	MaxReplications int
	// VR selects a variance-reduction scheme for the merged estimators (see
	// VarianceReduction); the zero value is VRNone. It applies to fixed-R
	// and adaptive runs alike; Run rejects an unknown mode.
	VR VarianceReduction
}

func (o Options) withDefaults() Options {
	if o.Replications <= 0 {
		o.Replications = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.MinReplications <= 0 {
		o.MinReplications = 4
	}
	if o.MinReplications < 2 {
		// The stopping rule needs a cross-replication interval; one
		// replication would offer only its batch-means interval.
		o.MinReplications = 2
	}
	if o.MaxReplications <= 0 {
		o.MaxReplications = 64
	}
	if o.MaxReplications < o.MinReplications {
		o.MaxReplications = o.MinReplications
	}
	if o.VR == VRAntithetic {
		// Pairing needs even counts; round every bound up.
		o.Replications += o.Replications % 2
		o.MinReplications += o.MinReplications % 2
		o.MaxReplications += o.MaxReplications % 2
	}
	return o
}

// Summary is the outcome of a replicated simulation run.
type Summary struct {
	// Merged holds the cross-replication results: every interval is a
	// Student-t confidence interval over the effective samples (its Batches
	// field reports their count — R replications, or R/2 antithetic pairs),
	// and the event and packet totals are summed over all replications. With
	// a single replication Merged is that replication's result verbatim,
	// batch-means intervals included.
	Merged sim.Results
	// Replications is the number of replications merged.
	Replications int
	// BaseSeed is the seed the replication substreams were derived from.
	BaseSeed int64
	// PerReplication holds the individual replication results in replication
	// order (under VRAntithetic, pair p occupies indices 2p and 2p+1).
	PerReplication []sim.Results
	// VR is the variance-reduction mode the summary was merged under.
	VR VarianceReduction
	// Adaptive reports whether the precision-targeted stopping rule drove
	// the replication count.
	Adaptive bool
	// Converged reports whether an adaptive run met its precision target
	// before hitting MaxReplications; always false for fixed-R runs.
	Converged bool
	// Target is the measure the stopping rule watched (meaningful for
	// adaptive runs).
	Target sim.Measure
	// RelativeHalfWidth is the realized relative confidence half-width of
	// the target measure in the merged results.
	RelativeHalfWidth float64

	// Series holds the cross-replication merge of the per-replication
	// sim-time series when the simulator configuration armed a probe
	// (sim.Config.Probe); nil otherwise.
	Series *SeriesSummary

	// control-variate state, kept for EffectiveSamples.
	controls    []float64
	controlMean float64
}

// String renders the summary as a small table headed by the replication
// count.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d replication(s), base seed %d", s.Replications, s.BaseSeed)
	if s.VR != VRNone {
		fmt.Fprintf(&b, ", variance reduction %s", s.VR)
	}
	if s.Adaptive {
		state := "hit the replication cap"
		if s.Converged {
			state = "met"
		}
		fmt.Fprintf(&b, ", adaptive target %s (%s at %.3g relative half-width)",
			s.Target, state, s.RelativeHalfWidth)
	}
	b.WriteString("\n")
	b.WriteString(s.Merged.String())
	return b.String()
}

// EffectiveSamples maps the replications to the i.i.d. samples the merged
// intervals are computed over, for an arbitrary derived observable: get is
// evaluated once per replication, and the values are reduced exactly like
// the built-in measures — passed through (VRNone), averaged over antithetic
// pairs (VRAntithetic), or regression-adjusted against the Erlang-B control
// (VRControl). Figure code uses this to put consistent error bars on derived
// quantities such as per-distance-group cell averages.
func (s Summary) EffectiveSamples(get func(sim.Results) float64) []float64 {
	raw := make([]float64, len(s.PerReplication))
	for i := range s.PerReplication {
		raw[i] = get(s.PerReplication[i])
	}
	return effectiveSamples(raw, s.VR, controlInfo{values: s.controls, mean: s.controlMean, ok: len(s.controls) > 0})
}

// Merge folds per-replication results into a Summary at the given confidence
// level, with no variance reduction. Replications are folded in slice order,
// so the result is independent of the schedule that produced them. An empty
// slice yields a zero Summary; a single result is passed through unchanged
// (batch-means intervals intact, no per-cell intervals).
func Merge(results []sim.Results, level float64) Summary {
	return mergeVR(results, level, VRNone, controlInfo{})
}

// mergeVR is the estimator behind Merge and Run: it folds per-replication
// results under the given variance-reduction treatment. Interval-valued
// measures become Student-t intervals over the effective samples, counter
// totals are summed, per-cell point estimates are averaged (mergePerCell) and
// additionally carry cross-replication intervals (perCellIntervals).
func mergeVR(results []sim.Results, level float64, vr VarianceReduction, ci controlInfo) Summary {
	s := Summary{
		Replications:   len(results),
		PerReplication: results,
		VR:             vr,
	}
	if ci.ok {
		s.controls = ci.values
		s.controlMean = ci.mean
	}
	if len(results) == 0 {
		return s
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	s.Merged = results[0]
	if len(results) == 1 {
		return s
	}
	raw := make([]float64, len(results))
	for m := range sim.NumMeasures {
		for i := range results {
			raw[i] = results[i].Interval(m).Mean
		}
		*s.Merged.Interval(m) = SampleInterval(effectiveSamples(raw, vr, ci), level, vr)
	}
	// Merged starts as a copy of results[0], so its totals already hold
	// the first replication's.
	for i := 1; i < len(results); i++ {
		r := &results[i]
		s.Merged.PacketsOffered += r.PacketsOffered
		s.Merged.PacketsLost += r.PacketsLost
		s.Merged.PacketsDelivered += r.PacketsDelivered
		s.Merged.HandoversIn += r.HandoversIn
		s.Merged.HandoversOut += r.HandoversOut
		s.Merged.TCPTimeouts += r.TCPTimeouts
		s.Merged.TCPFastRecovers += r.TCPFastRecovers
		s.Merged.SimulatedSec += r.SimulatedSec
		s.Merged.Events += r.Events
	}
	s.Merged.PerCell = mergePerCell(results)
	s.Merged.PerCellCI = perCellIntervals(results, level, vr, ci)
	return s
}

// mergePerCell folds the per-cell reports of the replications: point
// estimates (time averages, probabilities) are averaged across replications
// and counter totals are summed, mirroring the treatment of the mid-cell
// measures. Cross-replication intervals over the same measures are computed
// by perCellIntervals into Results.PerCellCI; the replication-resolved values
// stay available in PerReplication.
func mergePerCell(results []sim.Results) []sim.CellMeasures {
	n := len(results[0].PerCell)
	for _, r := range results {
		if len(r.PerCell) != n {
			return nil
		}
	}
	merged := make([]sim.CellMeasures, n)
	inv := 1 / float64(len(results))
	for i := range merged {
		m := sim.CellMeasures{Cell: results[0].PerCell[i].Cell}
		for _, r := range results {
			c := &r.PerCell[i]
			for k := range sim.NumCellMeasures {
				*m.Measure(k) += *c.Measure(k) * inv
			}
			for k := range probe.NumCounters {
				if f := m.Counter(k); f != nil {
					*f += *c.Counter(k)
				}
			}
		}
		merged[i] = m
	}
	return merged
}

// CheckBatches returns an error wrapping sim.ErrInvalidConfig if a run of
// cfg under o merges a single replication of one batch: the merge passes
// that replication's batch-means intervals through, and one batch has no
// variance estimate, so every interval would be infinite. Run calls it; a
// caller that runs a single replication without Run calls it first.
func CheckBatches(cfg sim.Config, o Options) error {
	if o = o.withDefaults(); o.Precision <= 0 && o.Replications == 1 && cfg.Batches == 1 {
		return fmt.Errorf("%w: one batch in one replication has no confidence interval; use 2 or more batches or replications", sim.ErrInvalidConfig)
	}
	return nil
}

// Run executes independent replications of the given simulator configuration
// (the configuration's own Seed field is ignored; replication i runs with
// SeedFor(BaseSeed, i), or SeedFor(BaseSeed, i/2) on paired stream kinds
// under VRAntithetic) and merges them. With Precision 0 exactly Replications
// runs execute, and the merged result is bit-identical for a given
// (BaseSeed, options) regardless of worker count and of the Shards setting
// (every partitioning reproduces the one-group run exactly). With
// Precision > 0 the adaptive stopping rule grows the count in pool-sized
// batches (growBatch) until the target measure's relative confidence
// half-width reaches the threshold or MaxReplications is hit; the batch
// boundaries — and with them the realized count — depend on the width of
// the gating pool, so pin Workers explicitly to reproduce an adaptive run
// across machines (scheduling within a given pool width never changes any
// result).
func Run(cfg sim.Config, o Options) (Summary, error) {
	if !o.Target.Valid() || o.VR < VRNone || o.VR > VRControl {
		return Summary{}, fmt.Errorf("runner: unknown target %v or variance reduction %v", o.Target, o.VR)
	}
	if err := CheckBatches(cfg, o); err != nil {
		return Summary{}, err
	}
	o = o.withDefaults()
	lim := o.Limiter
	if lim == nil {
		lim = NewLimiter(o.Workers)
	}

	level := o.ConfidenceLevel
	if level <= 0 || level >= 1 {
		level = cfg.ConfidenceLevel
	}

	var control controlInfo
	if o.VR == VRControl {
		var err error
		if control, err = controlForConfig(cfg); err != nil {
			return Summary{}, err
		}
	}

	// With shard-level parallelism the CPU bound moves to the leaf work —
	// one shard advancing one synchronization window acquires the shared
	// limiter's tokens — so the replication loop must not hold those same
	// tokens across window barriers (a replication holding one while its
	// shard workers wait for more would deadlock a small pool). Instead the
	// fan-out is gated by the Admission limiter: a distinct pool, so a
	// replication parked at a barrier with an admission token blocks no
	// shard worker, while the number of live simulators stays bounded even
	// across many concurrent Run calls sharing one Admission.
	outer := lim
	if o.Shards > 1 {
		if o.Admission != nil && o.Admission == lim {
			// Sharing one pool would deadlock: a replication holds its
			// admission token across window barriers while its shard
			// workers wait on the same pool for CPU tokens.
			return Summary{}, fmt.Errorf("runner: Admission must be a pool distinct from Limiter")
		}
		outer = o.Admission
		if outer == nil {
			outer = NewLimiter(o.Workers)
		}
	}

	// Per-replication series slots, allocated to the maximum replication
	// count the run can reach; nil when no probe is armed. Series travel out
	// of band next to the results so the merged numbers stay bit-identical
	// with probes on or off.
	var seriesByRep []*probe.Series
	if cfg.Probe != nil {
		slots := o.Replications
		if o.Precision > 0 {
			slots = o.MaxReplications
		}
		seriesByRep = make([]*probe.Series, slots)
	}

	var mu sync.Mutex
	done := 0
	// runBatch simulates replications [lo, len(results)) into their slots.
	// Replication i's configuration depends only on (BaseSeed, i, VR), so
	// batching — like scheduling — cannot change any result.
	runBatch := func(results []sim.Results, lo, total int) error {
		probe.Default.ReplicationsPlanned.Add(uint64(len(results) - lo))
		return ForEach(outer, len(results)-lo, func(k int) error {
			i := lo + k
			c := cfg
			if o.VR == VRAntithetic {
				c.Seed = SeedFor(o.BaseSeed, i/2)
				if i%2 == 0 {
					c.Streams = des.StreamPaired
				} else {
					c.Streams = des.StreamAntithetic
				}
			} else {
				c.Seed = SeedFor(o.BaseSeed, i)
			}
			res, series, err := sim.RunOnceSeries(c, sim.ShardedOptions{Shards: o.Shards, Limiter: lim})
			if err != nil {
				return fmt.Errorf("replication %d: %w", i, err)
			}
			results[i] = res
			if seriesByRep != nil {
				seriesByRep[i] = series
			}
			probe.Default.ReplicationsDone.Add(1)
			if o.Progress != nil {
				mu.Lock()
				done++
				o.Progress(done, total)
				mu.Unlock()
			}
			return nil
		})
	}

	finish := func(sum Summary) Summary {
		sum.BaseSeed = o.BaseSeed
		sum.Target = o.Target
		sum.RelativeHalfWidth = relHalfWidth(*sum.Merged.Interval(o.Target))
		if seriesByRep != nil {
			sum.Series = MergeSeries(seriesByRep[:sum.Replications], level, o.VR)
		}
		return sum
	}

	if o.Precision <= 0 {
		results := make([]sim.Results, o.Replications)
		if err := runBatch(results, 0, o.Replications); err != nil {
			return Summary{}, err
		}
		if control.ok {
			control.observe(results)
		}
		return finish(mergeVR(results, level, o.VR, control)), nil
	}

	// Adaptive mode: grow the replication set in batches (half-again growth
	// sized to the worker pool, see growBatch) and re-check the stopping
	// rule after each. Replication i is the same run no matter which batch
	// issued it, so the boundaries determine only where the rule is
	// evaluated.
	results := make([]sim.Results, 0, o.MaxReplications)
	n := 0
	next := o.MinReplications
	var sum Summary
	for {
		results = results[:next]
		if err := runBatch(results, n, next); err != nil {
			return Summary{}, err
		}
		n = next
		if control.ok {
			control.observe(results)
		}
		sum = finish(mergeVR(results, level, o.VR, control))
		sum.Adaptive = true
		probe.Default.SetAdaptive(sum.RelativeHalfWidth, sum.RelativeHalfWidth <= o.Precision)
		if sum.RelativeHalfWidth <= o.Precision {
			sum.Converged = true
			return sum, nil
		}
		if n >= o.MaxReplications {
			return sum, nil
		}
		next = n + growBatch(n, outer.Cap(), o.VR)
		if next > o.MaxReplications {
			next = o.MaxReplications
		}
	}
}

// growBatch sizes the next adaptive batch: half-again growth (at least two
// replications), rounded up to a multiple of the width of the worker pool
// gating the replication fan-out — Workers/Limiter for serial replications,
// Admission for sharded ones. A batch that is a pool multiple keeps every
// worker busy until the batch boundary, so wide machines do not straggle on
// a sub-pool-sized growth increment; the final batch may still be partial
// when MaxReplications clamps it. Under VRAntithetic the growth is kept even
// so antithetic pairs stay whole.
func growBatch(n, pool int, vr VarianceReduction) int {
	grow := n / 2
	if grow < 2 {
		grow = 2
	}
	if pool > 1 {
		if rem := grow % pool; rem != 0 {
			grow += pool - rem
		}
	}
	if vr == VRAntithetic {
		grow += grow % 2
	}
	return grow
}
