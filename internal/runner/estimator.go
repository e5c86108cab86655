package runner

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/erlang"
	"repro/internal/sim"
	"repro/internal/stats"
)

// VarianceReduction selects how per-replication observations are turned into
// the i.i.d. samples the merged confidence intervals are computed over.
type VarianceReduction int

const (
	// VRNone treats every replication as one independent sample (the
	// classic replicate-and-aggregate estimator).
	VRNone VarianceReduction = iota
	// VRAntithetic runs replications as antithetic pairs: pair p consists
	// of two runs seeded SeedFor(base, p) whose variate streams consume
	// complementary uniforms (des.StreamPaired / des.StreamAntithetic), and
	// the pair mean is one sample. Negatively correlated pairs shrink the
	// sample variance at equal simulated time.
	VRAntithetic
	// VRControl adjusts every replication's measures with a control
	// variate: the replication's observed fresh GSM blocking probability,
	// whose expectation the analytic Erlang-B model with balanced handover
	// flow (internal/erlang, Eqs. 1-5 of the paper) supplies in closed
	// form. The regression-adjusted samples x_i - b*(c_i - E[c]) have
	// in-sample variance (1-rho^2) times the raw variance, where rho is
	// the empirical correlation between the measure and the control. The
	// control mean is a model quantity, so the estimator inherits the
	// model's (validated, small) bias; it requires the paper's uniform
	// constant load — a configured scenario profile is rejected. Reported
	// intervals charge the estimated coefficient one degree of freedom
	// (see SampleInterval), so small-sample half-widths stay honest.
	VRControl
)

// String returns the mode's flag name ("none", "antithetic", "control").
func (v VarianceReduction) String() string {
	switch v {
	case VRNone:
		return "none"
	case VRAntithetic:
		return "antithetic"
	case VRControl:
		return "control"
	default:
		return fmt.Sprintf("vr(%d)", int(v))
	}
}

// ParseVR resolves a flag name (case-insensitive) to its VarianceReduction.
func ParseVR(s string) (VarianceReduction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return VRNone, nil
	case "antithetic", "av":
		return VRAntithetic, nil
	case "control", "cv":
		return VRControl, nil
	default:
		return 0, fmt.Errorf("runner: unknown variance-reduction mode %q (known: none, antithetic, control)", s)
	}
}

// controlInfo carries the control-variate state of one merge: the analytic
// expectation of the control and its per-replication observations.
type controlInfo struct {
	// values[i] is replication i's observed control (fresh GSM blocking).
	values []float64
	// mean is the control's analytic expectation (Erlang-B with balanced
	// handover flow).
	mean float64
	// ok marks the info as usable; a zero controlInfo disables adjustment.
	ok bool
}

// controlForConfig computes the control-variate expectation for a simulator
// configuration: the Erlang-B blocking probability of the GSM voice service
// with handover flows balanced by the fixed-point iteration of Eqs. (4)-(5),
// exactly as the analytical model of internal/core sets up its marginal voice
// system. It rejects configurations with a scenario rate profile installed —
// the closed form knows only the uniform constant load.
func controlForConfig(cfg sim.Config) (controlInfo, error) {
	if cfg.Rates != nil {
		return controlInfo{}, fmt.Errorf("runner: control variates require the uniform baseline load, not a scenario rate profile")
	}
	if cfg.Mobility != nil {
		return controlInfo{}, fmt.Errorf("runner: control variates require the paper's symmetric dwell times, not a mobility profile")
	}
	voice, _ := cfg.BaseRates()
	hb, err := erlang.BalanceHandover(voice, 1/cfg.GSMCallDurationSec, 1/cfg.GSMDwellTimeSec,
		cfg.Channels.GSMChannels(), 0, 0)
	if err != nil {
		return controlInfo{}, fmt.Errorf("runner: control variate: %w", err)
	}
	b, err := hb.System.BlockingProbability()
	if err != nil {
		return controlInfo{}, fmt.Errorf("runner: control variate: %w", err)
	}
	return controlInfo{mean: b, ok: true}, nil
}

// observe extracts the per-replication control observations (the fresh GSM
// blocking probability of each run) into the control info.
func (ci *controlInfo) observe(results []sim.Results) {
	ci.values = make([]float64, len(results))
	for i := range results {
		ci.values[i] = results[i].GSMBlockingProbability.Mean
	}
}

// effectiveSamples maps raw per-replication observations of one measure to
// the i.i.d. samples its interval is computed over: the observations
// themselves (VRNone), antithetic pair means (VRAntithetic), or
// control-variate-adjusted observations (VRControl). Inputs that do not fit
// the mode (odd counts, missing control info) fall back to the raw samples.
func effectiveSamples(raw []float64, vr VarianceReduction, ci controlInfo) []float64 {
	switch vr {
	case VRAntithetic:
		if len(raw) < 2 || len(raw)%2 != 0 {
			return raw
		}
		pairs := make([]float64, len(raw)/2)
		for p := range pairs {
			pairs[p] = (raw[2*p] + raw[2*p+1]) / 2
		}
		return pairs
	case VRControl:
		if !ci.ok || len(ci.values) != len(raw) || len(raw) < 2 {
			return raw
		}
		var x, c stats.Welford
		for i := range raw {
			x.Add(raw[i])
			c.Add(ci.values[i])
		}
		varC := c.Variance()
		if varC == 0 {
			return raw
		}
		// Sample covariance via the shifted cross-product sum; the OLS
		// coefficient b = cov(x, c) / var(c) minimizes the adjusted
		// variance in-sample.
		var cov float64
		for i := range raw {
			cov += (raw[i] - x.Mean()) * (ci.values[i] - c.Mean())
		}
		cov /= float64(len(raw) - 1)
		b := cov / varC
		out := make([]float64, len(raw))
		for i := range raw {
			out[i] = raw[i] - b*(ci.values[i]-ci.mean)
		}
		return out
	default:
		return raw
	}
}

// SampleInterval returns the Student-t confidence interval the runner
// reports over effective samples produced under the given variance-reduction
// mode. For VRControl the regression coefficient of the control was
// estimated from the same samples, so one degree of freedom is charged: the
// half-width uses the t-quantile with n-2 degrees of freedom (and is +Inf
// below three samples, where nothing is left after estimating the slope and
// the mean). This keeps small-sample control-variate intervals honest — the
// in-sample variance shrink of the OLS fit would otherwise make the adaptive
// stopping rule converge on optimistic half-widths.
func SampleInterval(samples []float64, level float64, vr VarianceReduction) stats.Interval {
	iv := stats.MeanInterval(samples, level)
	if vr != VRControl || iv.HalfWidth == 0 {
		return iv
	}
	if len(samples) < 3 {
		iv.HalfWidth = math.Inf(1)
		return iv
	}
	iv.HalfWidth *= stats.TQuantile(len(samples)-2, 1-iv.Level) / stats.TQuantile(len(samples)-1, 1-iv.Level)
	return iv
}

// relHalfWidth returns the relative confidence half-width |hw/mean| of an
// interval — the quantity the adaptive stopping rule compares against the
// precision target. A zero half-width is 0 regardless of the mean; a zero
// mean with a non-zero half-width is +Inf (never converged).
func relHalfWidth(iv stats.Interval) float64 {
	if iv.HalfWidth == 0 {
		return 0
	}
	if iv.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(iv.HalfWidth / iv.Mean)
}

// perCellIntervals computes cross-replication confidence intervals for every
// per-cell measure, under the same variance-reduction treatment as the
// mid-cell measures. Replications with mismatched cell counts yield nil,
// mirroring mergePerCell.
func perCellIntervals(results []sim.Results, level float64, vr VarianceReduction, ci controlInfo) []sim.CellIntervals {
	n := len(results[0].PerCell)
	if n == 0 {
		return nil
	}
	for _, r := range results {
		if len(r.PerCell) != n {
			return nil
		}
	}
	out := make([]sim.CellIntervals, n)
	raw := make([]float64, len(results))
	for cell := range out {
		out[cell].Cell = results[0].PerCell[cell].Cell
		for k := range sim.NumCellMeasures {
			for i := range results {
				raw[i] = *results[i].PerCell[cell].Measure(k)
			}
			*out[cell].Interval(k) = SampleInterval(effectiveSamples(raw, vr, ci), level, vr)
		}
	}
	return out
}
