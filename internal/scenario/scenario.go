// Package scenario is the declarative workload layer of the multi-cell GPRS
// simulator. The paper validates its Markov model only under a symmetric
// load — every cell of the seven-cell cluster sees the same constant
// voice-call and GPRS-session arrival rates. Real cellular load is spatially
// and temporally non-uniform, and the 19/37-cell hex-ring topologies plus the
// parallel cell groups exist precisely to go beyond the symmetric case; this
// package describes how.
//
// A Spec names a spatial load shape (uniform, radial hotspot with exponential
// decay by hex distance, linear gradient, corridor along a hex axis) and a
// temporal profile (constant, or a piecewise-constant step schedule such as a
// busy-hour ramp, optionally periodic). Compiling a Spec against a cluster
// topology and the baseline per-cell arrival rates yields a Profile — an
// immutable, pure per-cell rate function satisfying the sim.RateProfile
// contract, so every partitioning of the cells remains bit-identical under
// every scenario. The uniform scenario compiles to weight 1 and scale 1
// everywhere and therefore reproduces the paper's symmetric load bit for bit.
//
// A Spec can additionally declare a mobility profile (Spec.Mobility): the
// same spatial-shape vocabulary crossed with the same temporal profiles, but
// multiplying the mean GSM/GPRS dwell times instead of the arrival rates.
// Multipliers above 1 model slow users (pedestrians lingering in a hotspot),
// below 1 fast ones (vehicles on a highway corridor); skewed dwell times skew
// the handover flow itself, which the paper's single-dwell-time model cannot
// express. Mobility compiles into a DwellProfile satisfying the
// sim.MobilityProfile contract; a uniform mobility shape with multiplier 1
// reproduces the symmetric handover flow bit for bit.
//
// A Spec can finally declare a handover admission policy (Spec.Policy):
// guard channels, queued handovers, or directed retry (see package policy).
// The policy is not compiled — it installs verbatim as sim.Config.Policy —
// but declaring it in the Spec lets a single JSON document or preset name
// carry the complete workload: load shape, mobility, and admission rule.
//
// Specs serialize to a small JSON format (see Parse and Load) and a handful
// of named presets are built in (see Preset and Names).
//
// # Determinism contract
//
// A compiled Profile is an immutable pure function: Weights is fixed at
// compile time, and Rates/NextChange depend only on (cell, t) — no hidden
// state, no randomness, no mutation after Compile returns. Profiles are
// therefore safe for unsynchronized concurrent readers, which is exactly
// what the layers above assume:
//
//   - a multi-group simulator queries one profile from several shard
//     workers at once, and stays bit-identical to the one-group run under
//     every scenario (the engine's own contract plus profile purity);
//
//   - the replication runner shares one profile across all replications, so
//     replication i sees the same rates regardless of scheduling, keeping
//     the runner's (base seed, replication count) bit-identity — and the
//     adaptive stopping rule built on it — intact under every scenario;
//
//   - the uniform scenario compiles to weight 1 and scale 1 everywhere and
//     reproduces the paper's symmetric load bit for bit, which the test
//     suite pins on both engines.
//
// Rates are piecewise constant in time by construction (Steps schedules,
// optionally periodic), which the simulator's boundary-re-arming arrival
// generator relies on for exactness: a rate holds on [t, NextChange(t)), so
// exponential gaps drawn within a segment are exact, not an approximation.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/sim"
)

// ErrInvalidScenario is returned for malformed scenario specifications.
var ErrInvalidScenario = errors.New("scenario: invalid scenario")

// Spatial load-shape kinds.
const (
	// Uniform gives every cell weight 1 — the paper's symmetric baseline.
	Uniform = "uniform"
	// Hotspot peaks at a center cell and decays exponentially with hex
	// distance: weight(d) = 1 + (Peak-1) * exp(-d/Decay).
	Hotspot = "hotspot"
	// Gradient interpolates linearly in hex distance from the center cell:
	// weight(d) = Low + (High-Low) * d / eccentricity(center).
	Gradient = "gradient"
	// Corridor peaks along a hexagonal lattice axis through the center cell
	// (a highway) and decays exponentially with the perpendicular hex
	// distance from that axis: weight(d) = 1 + (Peak-1) * exp(-d/Decay) with
	// d = cluster.Topology.AxisDistances. It requires a hexagonal topology.
	Corridor = "corridor"
)

// Temporal profile kinds.
const (
	// Constant holds scale 1 forever.
	Constant = "constant"
	// Steps follows a piecewise-constant step schedule, optionally periodic.
	Steps = "steps"
	// Trace replays a measured arrival series (CSV file or inline rows),
	// normalized to time-weighted mean scale 1 — the empirical counterpart of
	// the synthetic Steps schedules. See trace.go.
	Trace = "trace"
	// MMPP modulates the rates by a Markov-modulated Poisson process: the
	// superposition of Sources independent exponential on/off sources,
	// pre-sampled into a deterministic step schedule at compile time.
	MMPP = "mmpp"
	// OnOff modulates the rates by a single on/off source with heavy-tailed
	// Pareto sojourns — the classic self-similar traffic construction.
	OnOff = "onoff"
)

// Spec declares one workload scenario: a spatial load shape crossed with a
// temporal profile. The zero value (empty kinds) means the uniform constant
// load. Specs are plain data — compile one with Compile or Apply to obtain
// the per-cell rate function.
type Spec struct {
	// Name labels the scenario in output files and progress messages.
	Name string `json:"name,omitempty"`
	// Spatial selects the per-cell weight shape.
	Spatial Spatial `json:"spatial"`
	// Temporal selects the time-varying scale profile.
	Temporal Temporal `json:"temporal,omitempty"`
	// Mobility, when non-nil, shapes the per-cell dwell-time multipliers
	// alongside the arrival rates; nil means multiplier 1 everywhere (the
	// paper's single dwell time per service).
	Mobility *Mobility `json:"mobility,omitempty"`
	// Policy, when non-nil, selects the handover admission policy of the
	// scenario; nil means the paper's default (fresh calls and handovers
	// share the channels, a blocked handover is dropped).
	Policy *PolicySpec `json:"policy,omitempty"`
}

// PolicySpec declares the handover admission policy of a scenario in the
// JSON form: a policy name as accepted by policy.Parse plus the kind's
// parameters. It mirrors policy.Config field for field; Spec validation
// enforces the same no-parameter-mixing rules.
type PolicySpec struct {
	// Kind is the policy name: "guard", "queue", "retry", or "none".
	Kind string `json:"kind"`
	// Guard is the number of voice channels reserved for handovers
	// (guard policy only).
	Guard int `json:"guard,omitempty"`
	// QueueCapacity bounds the per-cell handover queue (queue policy only).
	QueueCapacity int `json:"queue_capacity,omitempty"`
	// QueueDeadlineSec is the maximum wait of a queued handover (queue
	// policy only).
	QueueDeadlineSec float64 `json:"queue_deadline_sec,omitempty"`
}

// compile resolves the declaration to the simulator's policy configuration.
// The channel-plan-dependent guard bound is checked later, by
// sim.Config.Validate, where the plan is known.
func (p PolicySpec) compile() (*policy.Config, error) {
	kind, err := policy.Parse(p.Kind)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidScenario, err)
	}
	cfg := &policy.Config{
		Kind:             kind,
		Guard:            p.Guard,
		QueueCapacity:    p.QueueCapacity,
		QueueDeadlineSec: p.QueueDeadlineSec,
	}
	if err := cfg.Validate(0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidScenario, err)
	}
	return cfg, nil
}

// Mobility declares the dwell-time shaping of a scenario: a spatial shape
// crossed with a temporal profile, exactly like the rate shaping, but the
// compiled value multiplies the mean GSM and GPRS dwell times of the
// session's current cell instead of the arrival rates. Because dwell times
// must stay positive, every compiled multiplier has to be strictly positive:
// shapes with zero weights and schedules with zero scales are rejected at
// compile time.
type Mobility struct {
	// Spatial selects the per-cell dwell-time weight shape.
	Spatial Spatial `json:"spatial"`
	// Temporal selects the time-varying dwell scale profile.
	Temporal Temporal `json:"temporal,omitempty"`
}

// Spatial describes the per-cell weight shape of a scenario. Weights
// multiply the baseline arrival rates (voice and data alike), so weight 1
// means the configured per-cell load.
type Spatial struct {
	// Kind is Uniform, Hotspot, or Gradient. Empty means Uniform.
	Kind string `json:"kind"`
	// Center is the reference cell of Hotspot and Gradient shapes (the peak
	// cell; default 0, the measured mid cell).
	Center int `json:"center,omitempty"`
	// Peak is the Hotspot weight at the center cell. Values above 1 create a
	// hotspot, values in [0, 1) a coldspot.
	Peak float64 `json:"peak,omitempty"`
	// Decay is the Hotspot e-folding distance in hex hops (> 0).
	Decay float64 `json:"decay,omitempty"`
	// Low and High are the Gradient weights at the center cell and at the
	// cells farthest from it.
	Low  float64 `json:"low,omitempty"`
	High float64 `json:"high,omitempty"`
	// Axis selects the lattice axis of a Corridor shape (0, 1, or 2 — see
	// cluster.NumHexAxes); the corridor runs through Center along it. Peak
	// and Decay have their Hotspot meaning, with the distance measured
	// perpendicular to the axis instead of radially.
	Axis int `json:"axis,omitempty"`
	// Normalize rescales the weights to mean 1, so the cluster-aggregate
	// load matches the uniform scenario and only its spatial distribution
	// changes.
	Normalize bool `json:"normalize,omitempty"`
}

// Step is one segment boundary of a piecewise-constant temporal profile: from
// AtSec on (until the next step), the baseline rates are multiplied by Scale.
type Step struct {
	AtSec float64 `json:"at_sec"`
	Scale float64 `json:"scale"`
}

// Temporal describes the time-varying scale profile of a scenario. The scale
// multiplies every cell's rates, so spatial shape and temporal profile
// compose.
type Temporal struct {
	// Kind is Constant, Steps, Trace, MMPP, or OnOff. Empty means Constant.
	Kind string `json:"kind,omitempty"`
	// Steps is the schedule of a Steps profile: strictly increasing AtSec
	// starting at 0, each holding Scale until the next step.
	Steps []Step `json:"steps,omitempty"`
	// PeriodSec, when > 0, repeats the schedule with this period (all AtSec
	// must lie inside [0, PeriodSec)). Zero means the last step's scale holds
	// forever. Steps and Trace profiles only.
	PeriodSec float64 `json:"period_sec,omitempty"`

	// CSV names the trace file of a Trace profile (see ParseTraceCSV for the
	// format). Load resolves the path relative to the scenario file and fills
	// Rows; Compile refuses a spec whose CSV was never loaded.
	CSV string `json:"csv,omitempty"`
	// Rows is the measured series of a Trace profile in rate form: strictly
	// increasing AtSec starting at 0, each row's rate holding until the next.
	Rows []TraceRow `json:"rows,omitempty"`

	// Sources is the number of on/off sources superposed by an MMPP profile.
	Sources int `json:"sources,omitempty"`
	// MeanOnSec and MeanOffSec are the mean sojourn times of the MMPP and
	// OnOff modulators' on and off phases.
	MeanOnSec  float64 `json:"mean_on_sec,omitempty"`
	MeanOffSec float64 `json:"mean_off_sec,omitempty"`
	// ParetoAlpha is the tail index of the OnOff sojourn distribution, in
	// (1, 2): finite mean, infinite variance — the self-similar regime.
	ParetoAlpha float64 `json:"pareto_alpha,omitempty"`
	// HorizonSec bounds the pre-sampled MMPP/OnOff trajectory; the last
	// state's scale holds beyond it, so it should cover warm-up plus
	// measurement.
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// Seed selects the deterministic substream the MMPP/OnOff trajectory is
	// sampled from, independently of the simulator's seed.
	Seed int64 `json:"seed,omitempty"`
}

// Validate reports whether the scenario specification is well formed.
// Topology-dependent checks (the center cell being in range) happen at
// Compile time.
func (s Spec) Validate() error {
	if err := s.Spatial.validate(); err != nil {
		return err
	}
	if err := s.Temporal.validate(); err != nil {
		return err
	}
	if s.Mobility != nil {
		if err := s.Mobility.validate(); err != nil {
			return fmt.Errorf("%w (in mobility profile)", err)
		}
	}
	if s.Policy != nil {
		if _, err := s.Policy.compile(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks the mobility declaration: the shared spatial/temporal rules
// plus strict positivity of every temporal scale (a zero scale would mean a
// zero dwell time — an infinite handover rate). Zero spatial weights can only
// be detected against a topology and are rejected by Compile.
func (m Mobility) validate() error {
	if err := m.Spatial.validate(); err != nil {
		return err
	}
	switch m.Temporal.Kind {
	case "", Constant, Steps:
	default:
		// Dwell multipliers must be strictly positive and hand-auditable; the
		// empirical/stochastic profiles (trace, mmpp, onoff) can reach scale 0
		// and are defined for arrival rates only.
		return fmt.Errorf("%w: mobility temporal profile must be constant or steps, got %q",
			ErrInvalidScenario, m.Temporal.Kind)
	}
	if err := m.Temporal.validate(); err != nil {
		return err
	}
	for _, st := range m.Temporal.Steps {
		if st.Scale <= 0 {
			return fmt.Errorf("%w: dwell scale %v at %v s must be positive", ErrInvalidScenario, st.Scale, st.AtSec)
		}
	}
	return nil
}

func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

func (sp Spatial) validate() error {
	switch sp.Kind {
	case "", Uniform:
	case Hotspot:
		if !finiteNonNeg(sp.Peak) {
			return fmt.Errorf("%w: hotspot peak %v", ErrInvalidScenario, sp.Peak)
		}
		if !finitePos(sp.Decay) {
			return fmt.Errorf("%w: hotspot decay %v", ErrInvalidScenario, sp.Decay)
		}
	case Gradient:
		if !finiteNonNeg(sp.Low) || !finiteNonNeg(sp.High) {
			return fmt.Errorf("%w: gradient endpoints low=%v high=%v", ErrInvalidScenario, sp.Low, sp.High)
		}
	case Corridor:
		if !finiteNonNeg(sp.Peak) {
			return fmt.Errorf("%w: corridor peak %v", ErrInvalidScenario, sp.Peak)
		}
		if !finitePos(sp.Decay) {
			return fmt.Errorf("%w: corridor decay %v", ErrInvalidScenario, sp.Decay)
		}
		if sp.Axis < 0 || sp.Axis >= cluster.NumHexAxes {
			return fmt.Errorf("%w: corridor axis %d (want 0..%d)", ErrInvalidScenario, sp.Axis, cluster.NumHexAxes-1)
		}
	default:
		return fmt.Errorf("%w: unknown spatial kind %q", ErrInvalidScenario, sp.Kind)
	}
	if sp.Center < 0 {
		return fmt.Errorf("%w: negative center cell %d", ErrInvalidScenario, sp.Center)
	}
	return nil
}

func (tp Temporal) validate() error {
	if len(tp.Steps) > 0 && tp.Kind != Steps {
		return fmt.Errorf("%w: %s temporal profile with steps", ErrInvalidScenario, tp.kindName())
	}
	if (tp.CSV != "" || len(tp.Rows) > 0) && tp.Kind != Trace {
		return fmt.Errorf("%w: %s temporal profile with trace data", ErrInvalidScenario, tp.kindName())
	}
	switch tp.Kind {
	case "", Constant:
		return nil
	case Steps:
		return tp.validateSteps()
	case Trace:
		return tp.validateTrace()
	case MMPP:
		return tp.validateMMPP()
	case OnOff:
		return tp.validateOnOff()
	default:
		return fmt.Errorf("%w: unknown temporal kind %q", ErrInvalidScenario, tp.Kind)
	}
}

// kindName renders the kind for error messages, naming the implicit default.
func (tp Temporal) kindName() string {
	if tp.Kind == "" {
		return Constant
	}
	return tp.Kind
}

func (tp Temporal) validateSteps() error {
	if len(tp.Steps) == 0 {
		return fmt.Errorf("%w: steps temporal profile without steps", ErrInvalidScenario)
	}
	times := make([]float64, len(tp.Steps))
	for i, st := range tp.Steps {
		times[i] = st.AtSec
	}
	if err := validateTimeline("step", times); err != nil {
		return err
	}
	for _, st := range tp.Steps {
		if !finiteNonNeg(st.Scale) {
			return fmt.Errorf("%w: step scale %v at %v s", ErrInvalidScenario, st.Scale, st.AtSec)
		}
	}
	return validatePeriod("step", tp.PeriodSec, tp.Steps[len(tp.Steps)-1].AtSec)
}

// Profile is a compiled scenario: per-cell weights, a step schedule, and the
// baseline rates, evaluating to absolute per-cell arrival rates. It is
// immutable after Compile and safe for concurrent use, and it satisfies the
// sim.RateProfile contract (piecewise constant, pure).
type Profile struct {
	weights []float64
	voice   float64
	data    float64
	sched   schedule
	// payload is the arrival-weighted mean payload size of a trace profile
	// with payload annotations, in bytes (0 otherwise). Reporting only: the
	// simulator's packet model stays at the paper's fixed 480-byte packets.
	payload float64
}

// Compile resolves the scenario against a cluster topology and the baseline
// per-cell arrival rates (the rates a weight-1 cell sees; typically
// sim.Config.BaseRates). Hex distances come from the topology's neighbour
// relation, so any cluster — the paper's seven-cell one, the generated hex
// rings, or a plain ring — can carry any scenario.
func (s Spec) Compile(topo *cluster.Topology, voiceRate, dataRate float64) (*Profile, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrInvalidScenario)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !finiteNonNeg(voiceRate) || !finiteNonNeg(dataRate) {
		return nil, fmt.Errorf("%w: baseline rates voice=%v data=%v", ErrInvalidScenario, voiceRate, dataRate)
	}
	weights, err := s.Spatial.weights(topo)
	if err != nil {
		return nil, err
	}
	sched, payload, err := s.Temporal.compile()
	if err != nil {
		return nil, err
	}
	return &Profile{weights: weights, voice: voiceRate, data: dataRate,
		sched: sched, payload: payload}, nil
}

// Apply compiles the scenario against the simulator configuration — its
// topology (the paper's seven-cell cluster when nil) and baseline rates — and
// installs the compiled rate profile as cfg.Rates and, when the spec declares
// one, the compiled mobility profile as cfg.Mobility. It returns the rate
// profile for reporting (per-cell weights).
func Apply(cfg *sim.Config, s Spec) (*Profile, error) {
	topo := cfg.Topology
	if topo == nil {
		topo = cluster.NewHexCluster()
	}
	voice, data := cfg.BaseRates()
	p, err := s.Compile(topo, voice, data)
	if err != nil {
		return nil, err
	}
	// Always overwrite the mobility profile, like the rate profile below: a
	// spec without mobility must clear any profile a previous Apply on the
	// same Config installed, or the old dwell skew would silently leak into
	// the new scenario's runs.
	cfg.Mobility = nil
	if s.Mobility != nil {
		dp, err := s.Mobility.Compile(topo)
		if err != nil {
			return nil, err
		}
		cfg.Mobility = dp
	}
	// Same clear-then-install discipline for the admission policy: a spec
	// without one must restore the paper's default admission rule.
	cfg.Policy = nil
	if s.Policy != nil {
		pc, err := s.Policy.compile()
		if err != nil {
			return nil, err
		}
		cfg.Policy = pc
	}
	cfg.Rates = p
	return p, nil
}

// Setup is the cluster, partitioning, workload and admission policy a
// simulator run installs on top of its base configuration — what the shared
// command-line simulator flags select.
type Setup struct {
	// Cells selects the cluster preset (cluster.Preset); 0 is the paper's
	// seven-cell cluster.
	Cells int
	// Partition, when non-nil, pins the cell→group assignment of sharded
	// runs; nil keeps the locality-aware default.
	Partition *partition.Spec
	// Scenario, when non-nil, is the workload scenario; nil is the paper's
	// uniform load.
	Scenario *Spec
	// Policy, when non-nil, overrides the scenario's admission policy; its
	// None kind restores the paper's default rule. Nil keeps the scenario's.
	Policy *policy.Config
}

// Apply installs the setup on cfg: the topology and the partition, then the
// scenario compiled against cfg's rates as they stand (so callers make their
// own changes to cfg first), then the policy override. It returns the
// compiled rate profile, or nil without a scenario.
func (s Setup) Apply(cfg *sim.Config) (*Profile, error) {
	cfg.Topology = cluster.NewHexCluster()
	if s.Cells != 0 {
		topo, err := cluster.Preset(s.Cells)
		if err != nil {
			return nil, err
		}
		cfg.Topology = topo
	}
	cfg.Partition = s.Partition
	var prof *Profile
	if s.Scenario != nil {
		var err error
		if prof, err = Apply(cfg, *s.Scenario); err != nil {
			return nil, err
		}
	}
	if s.Policy != nil {
		cfg.Policy = nil
		if s.Policy.Kind != policy.None {
			cfg.Policy = s.Policy
		}
	}
	return prof, nil
}

// weights computes the per-cell weight vector of a spatial shape.
func (sp Spatial) weights(topo *cluster.Topology) ([]float64, error) {
	n := topo.NumCells()
	w := make([]float64, n)
	kind := sp.Kind
	if kind == "" {
		kind = Uniform
	}
	if kind == Uniform {
		for i := range w {
			w[i] = 1
		}
		return w, nil
	}
	if sp.Center >= n {
		return nil, fmt.Errorf("%w: center cell %d outside the %d-cell cluster", ErrInvalidScenario, sp.Center, n)
	}
	switch kind {
	case Hotspot:
		for i, d := range topo.Distances(sp.Center) {
			if d < 0 {
				return nil, fmt.Errorf("%w: cell %d unreachable from center %d", ErrInvalidScenario, i, sp.Center)
			}
			w[i] = 1 + (sp.Peak-1)*math.Exp(-float64(d)/sp.Decay)
		}
	case Gradient:
		ecc := topo.Eccentricity(sp.Center)
		if ecc < 0 {
			return nil, fmt.Errorf("%w: cluster disconnected from center %d", ErrInvalidScenario, sp.Center)
		}
		for i, d := range topo.Distances(sp.Center) {
			if ecc == 0 {
				w[i] = sp.Low
				continue
			}
			w[i] = sp.Low + (sp.High-sp.Low)*float64(d)/float64(ecc)
		}
	case Corridor:
		dist := topo.AxisDistances(sp.Center, sp.Axis)
		if dist == nil {
			return nil, fmt.Errorf("%w: corridor shape needs a hexagonal topology with lattice coordinates", ErrInvalidScenario)
		}
		for i, d := range dist {
			w[i] = 1 + (sp.Peak-1)*math.Exp(-float64(d)/sp.Decay)
		}
	}
	if sp.Normalize {
		var sum float64
		for _, v := range w {
			sum += v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("%w: weights sum to %v, cannot normalize", ErrInvalidScenario, sum)
		}
		f := float64(n) / sum
		for i := range w {
			w[i] *= f
		}
	}
	return w, nil
}

// NumCells returns the number of cells the profile was compiled for. The
// simulator rejects a profile whose size differs from its topology's.
func (p *Profile) NumCells() int { return len(p.weights) }

// Weights returns a copy of the per-cell weight vector.
func (p *Profile) Weights() []float64 { return append([]float64(nil), p.weights...) }

// MeanPayloadBytes returns the arrival-weighted mean payload size of a trace
// profile carrying payload annotations, or 0 when the profile has none. It is
// reporting metadata: the simulator's packet model keeps the paper's fixed
// 480-byte packets regardless.
func (p *Profile) MeanPayloadBytes() float64 { return p.payload }

// Rates returns the cell's voice and data arrival rates at time t:
// baseline * weight(cell) * scale(t). Out-of-range cells see rate 0.
func (p *Profile) Rates(cell int, t float64) (float64, float64) {
	if cell < 0 || cell >= len(p.weights) {
		return 0, 0
	}
	f := p.weights[cell] * p.scale(t)
	return p.voice * f, p.data * f
}

// NextChange returns the earliest time strictly after t at which the scale —
// and with it every cell's rates — changes, or +Inf for constant profiles.
func (p *Profile) NextChange(t float64) float64 { return p.sched.next(t) }

// scale returns the temporal multiplier at time t.
func (p *Profile) scale(t float64) float64 { return p.sched.scale(t) }

// schedule is the compiled piecewise-constant temporal profile shared by rate
// and mobility profiles: a step schedule, optionally periodic. The zero value
// is the constant scale 1.
type schedule struct {
	steps  []Step // nil means constant scale 1
	period float64
}

// compile resolves a validated temporal declaration into its piecewise-
// constant schedule. The second return value is the arrival-weighted mean
// payload of a trace profile with payload annotations (0 otherwise). It can
// fail only for the generated kinds: a trace whose CSV was never loaded or
// whose rows cannot be normalized.
func (tp Temporal) compile() (schedule, float64, error) {
	switch tp.Kind {
	case Steps:
		return schedule{steps: append([]Step(nil), tp.Steps...), period: tp.PeriodSec}, 0, nil
	case Trace:
		return tp.compileTrace()
	case MMPP:
		return tp.compileMMPP(), 0, nil
	case OnOff:
		return tp.compileOnOff(), 0, nil
	default:
		return schedule{}, 0, nil
	}
}

// next returns the earliest time strictly after t at which the scale changes,
// or +Inf for constant schedules. Like scale it binary-searches the step
// boundaries: generated schedules (trace replays, MMPP trajectories) carry
// thousands of steps, far too many for the linear scan the hand-written ramps
// got away with.
func (s schedule) next(t float64) float64 {
	if len(s.steps) == 0 {
		return math.Inf(1)
	}
	if s.period > 0 {
		base := math.Floor(t/s.period) * s.period
		i := sort.Search(len(s.steps), func(i int) bool { return base+s.steps[i].AtSec > t })
		if i < len(s.steps) {
			return base + s.steps[i].AtSec
		}
		// Wrap: the next boundary is the first step of the following period
		// (step times start at 0, so it is the period boundary itself).
		return base + s.period + s.steps[0].AtSec
	}
	i := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].AtSec > t })
	if i < len(s.steps) {
		return s.steps[i].AtSec
	}
	return math.Inf(1)
}

// scale returns the temporal multiplier at time t: the Scale of the last step
// at or before t (periodic schedules fold t into one period first). Times
// before the schedule — possible only for negative t — scale by 1.
func (s schedule) scale(t float64) float64 {
	if len(s.steps) == 0 {
		return 1
	}
	if s.period > 0 {
		t = t - math.Floor(t/s.period)*s.period
	}
	i := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].AtSec > t })
	if i == 0 {
		return 1
	}
	return s.steps[i-1].Scale
}

// DwellProfile is a compiled mobility declaration: per-cell dwell-time
// weights crossed with a piecewise-constant temporal scale, evaluating to the
// multiplier applied to the mean GSM/GPRS dwell times of a cell. It is
// immutable after Compile, safe for concurrent use, and satisfies the
// sim.MobilityProfile contract (piecewise constant, pure, strictly positive).
type DwellProfile struct {
	weights []float64
	sched   schedule
}

// Compile resolves the mobility declaration against a cluster topology. On
// top of the syntactic rules shared with the rate shapes it enforces strict
// positivity: every compiled per-cell weight must be positive and finite,
// because the weights multiply dwell-time means.
func (m Mobility) Compile(topo *cluster.Topology) (*DwellProfile, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrInvalidScenario)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%w (in mobility profile)", err)
	}
	weights, err := m.Spatial.weights(topo)
	if err != nil {
		return nil, err
	}
	for i, w := range weights {
		if !finitePos(w) {
			return nil, fmt.Errorf("%w: dwell weight %v in cell %d must be positive", ErrInvalidScenario, w, i)
		}
	}
	sched, _, err := m.Temporal.compile()
	if err != nil {
		return nil, err
	}
	return &DwellProfile{weights: weights, sched: sched}, nil
}

// NumCells returns the number of cells the profile was compiled for. The
// simulator rejects a profile whose size differs from its topology's.
func (p *DwellProfile) NumCells() int { return len(p.weights) }

// Weights returns a copy of the per-cell dwell weight vector.
func (p *DwellProfile) Weights() []float64 { return append([]float64(nil), p.weights...) }

// Multiplier returns the dwell-time multiplier of the cell at time t:
// weight(cell) * scale(t), constant on [t, NextChange(t)). Out-of-range cells
// see the neutral multiplier 1.
func (p *DwellProfile) Multiplier(cell int, t float64) float64 {
	if cell < 0 || cell >= len(p.weights) {
		return 1
	}
	return p.weights[cell] * p.sched.scale(t)
}

// NextChange returns the earliest time strictly after t at which any cell's
// multiplier changes, or +Inf for constant profiles.
func (p *DwellProfile) NextChange(t float64) float64 { return p.sched.next(t) }
