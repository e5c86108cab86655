package scenario

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/des"
)

// ErrInvalidSchedule marks a malformed piecewise-constant timeline: step
// boundaries or trace timestamps that are non-finite, not strictly
// increasing, not anchored at 0, or lying beyond the declared period. It is
// always wrapped together with ErrInvalidScenario, so callers can match
// either the broad class (any scenario defect) or specifically a broken
// schedule shape — the step-schedule and trace validators share the exact
// same timeline rules through validateTimeline and validatePeriod.
var ErrInvalidSchedule = errors.New("invalid schedule")

// validateTimeline enforces the shared shape rules of every piecewise-
// constant timeline, synthetic step schedules and measured trace timestamps
// alike: finite, non-negative, strictly increasing times anchored at 0. what
// names the boundary in error messages ("step", "trace row").
func validateTimeline(what string, times []float64) error {
	if len(times) == 0 {
		return fmt.Errorf("%w: %w: empty %s timeline", ErrInvalidScenario, ErrInvalidSchedule, what)
	}
	if times[0] != 0 {
		return fmt.Errorf("%w: %w: first %s must start at 0, got %v",
			ErrInvalidScenario, ErrInvalidSchedule, what, times[0])
	}
	prev := math.Inf(-1)
	for _, t := range times {
		if !finiteNonNeg(t) || t <= prev {
			return fmt.Errorf("%w: %w: %s times must be finite and strictly increasing, got %v after %v",
				ErrInvalidScenario, ErrInvalidSchedule, what, t, prev)
		}
		prev = t
	}
	return nil
}

// validatePeriod enforces the shared periodicity rule: a positive finite
// period strictly beyond the last boundary (period 0 means non-periodic).
func validatePeriod(what string, period, last float64) error {
	if period == 0 {
		return nil
	}
	if !finitePos(period) {
		return fmt.Errorf("%w: %w: period %v", ErrInvalidScenario, ErrInvalidSchedule, period)
	}
	if last >= period {
		return fmt.Errorf("%w: %w: %s at %v s lies beyond the period %v s",
			ErrInvalidScenario, ErrInvalidSchedule, what, last, period)
	}
	return nil
}

// TraceRow is one segment of a measured arrival series in rate form: from
// AtSec until the next row, arrivals occur at RatePerSec (in the trace's own
// units — compilation normalizes the series to time-weighted mean 1, so only
// the shape matters). PayloadBytes optionally annotates the mean payload
// size observed in the window; it is validated but does not change the
// packet model, which keeps the paper's fixed 480-byte packets.
type TraceRow struct {
	AtSec        float64 `json:"at_sec"`
	RatePerSec   float64 `json:"rate_per_s"`
	PayloadBytes float64 `json:"payload_bytes,omitempty"`
}

// validateTrace checks the trace declaration. A spec carrying only a CSV
// path passes validation — reading the file is Load's job, and Compile
// rejects a spec whose CSV was never loaded — but inline or loaded rows are
// checked in full here.
func (tp Temporal) validateTrace() error {
	if tp.CSV == "" && len(tp.Rows) == 0 {
		return fmt.Errorf("%w: trace temporal profile without csv or rows", ErrInvalidScenario)
	}
	if tp.CSV != "" && len(tp.Rows) > 0 {
		return fmt.Errorf("%w: trace temporal profile with both csv and inline rows", ErrInvalidScenario)
	}
	if len(tp.Rows) == 0 {
		return nil
	}
	if err := validateTraceRows(tp.Rows); err != nil {
		return err
	}
	return validatePeriod("trace row", tp.PeriodSec, tp.Rows[len(tp.Rows)-1].AtSec)
}

// validateTraceRows checks a series in rate form: the shared timeline rules
// on the timestamps, finite non-negative rates with at least one positive
// (an all-zero series cannot be normalized), and finite non-negative payload
// annotations. At least two rows are required — a single row carries no
// temporal information and should be the constant profile instead.
func validateTraceRows(rows []TraceRow) error {
	if len(rows) < 2 {
		return fmt.Errorf("%w: trace needs at least 2 rows, got %d", ErrInvalidScenario, len(rows))
	}
	times := make([]float64, len(rows))
	for i, r := range rows {
		times[i] = r.AtSec
	}
	if err := validateTimeline("trace row", times); err != nil {
		return err
	}
	anyPositive := false
	for _, r := range rows {
		if !finiteNonNeg(r.RatePerSec) {
			return fmt.Errorf("%w: trace rate %v at %v s", ErrInvalidScenario, r.RatePerSec, r.AtSec)
		}
		if !finiteNonNeg(r.PayloadBytes) {
			return fmt.Errorf("%w: trace payload %v at %v s", ErrInvalidScenario, r.PayloadBytes, r.AtSec)
		}
		if r.RatePerSec > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return fmt.Errorf("%w: trace rates are all zero, cannot normalize", ErrInvalidScenario)
	}
	return nil
}

// compileTrace normalizes the series to time-weighted mean scale 1 and
// returns it as a step schedule.
//
// The mean is taken over one period for periodic traces and over the
// measured span [0, last) otherwise — in the non-periodic case the final
// row's rate is excluded from the mean (it holds from the last timestamp on,
// beyond the measurement) but still compiles to a step, so the replay is
// defined for the whole run.
//
// A series whose rates are all bitwise equal normalizes to scale exactly 1
// everywhere and coalesces to the constant schedule, so a constant-rate
// trace reproduces the uniform profile — and with it the paper's symmetric
// load — bit for bit.
func (tp Temporal) compileTrace() (schedule, error) {
	rows := tp.Rows
	if len(rows) == 0 {
		if tp.CSV != "" {
			return schedule{}, fmt.Errorf("%w: trace csv %q not loaded (Load resolves and reads it; ParseTraceCSV parses raw data)",
				ErrInvalidScenario, tp.CSV)
		}
		return schedule{}, fmt.Errorf("%w: trace temporal profile without csv or rows", ErrInvalidScenario)
	}

	allEqual := true
	for _, r := range rows[1:] {
		if r.RatePerSec != rows[0].RatePerSec {
			allEqual = false
			break
		}
	}
	if allEqual {
		return schedule{}, nil
	}

	// Time-weighted mean rate over the trace span (one period when periodic).
	var rateDur, span float64
	for i, r := range rows {
		var dur float64
		switch {
		case i+1 < len(rows):
			dur = rows[i+1].AtSec - r.AtSec
		case tp.PeriodSec > 0:
			dur = tp.PeriodSec - r.AtSec
		default:
			dur = 0 // final row of a non-periodic trace: horizon marker
		}
		rateDur += r.RatePerSec * dur
		span += dur
	}
	mean := rateDur / span
	if mean <= 0 || math.IsInf(mean, 0) || math.IsNaN(mean) {
		return schedule{}, fmt.Errorf("%w: trace mean rate %v, cannot normalize", ErrInvalidScenario, mean)
	}
	steps := make([]Step, len(rows))
	for i, r := range rows {
		steps[i] = Step{AtSec: r.AtSec, Scale: r.RatePerSec / mean}
	}
	return schedule{steps: steps, period: tp.PeriodSec}, nil
}

// Trace CSV column headers. The second column selects the mode: rate_per_s
// rows hold their rate until the next row; arrivals rows count arrivals in
// the window [this row, next row), with the final row a pure horizon marker
// (arrivals 0) closing the last window.
const (
	traceColTime     = "time_sec"
	traceColRate     = "rate_per_s"
	traceColArrivals = "arrivals"
	traceColPayload  = "payload_bytes"
)

// ParseTraceCSV parses a measured arrival series. The format is a header
// line followed by numeric records:
//
//	time_sec,rate_per_s[,payload_bytes]   — rate mode
//	time_sec,arrivals[,payload_bytes]     — count mode
//
// Timestamps must be finite, strictly increasing, and start at 0 (shift a
// wall-clock trace before exporting it — silent re-anchoring would hide unit
// mistakes). Rates and counts must be finite and non-negative; in count
// mode the final record closes the last window and must carry 0 arrivals.
// Count-mode windows convert to rates (arrivals / window length), with the
// final horizon row holding the trace's overall mean rate — scale 1 after
// normalization — so a replay outliving its trace settles at the mean load.
func ParseTraceCSV(data []byte) ([]TraceRow, error) {
	r := csv.NewReader(strings.NewReader(string(data)))
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%w: %w: trace csv: %v", ErrInvalidScenario, ErrInvalidSchedule, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%w: %w: trace csv: empty input", ErrInvalidScenario, ErrInvalidSchedule)
	}
	header := records[0]
	counts := false
	switch {
	case len(header) < 2 || len(header) > 3 || strings.TrimSpace(header[0]) != traceColTime:
		return nil, fmt.Errorf("%w: %w: trace csv: header %v, want %s,{%s|%s}[,%s]",
			ErrInvalidScenario, ErrInvalidSchedule, header,
			traceColTime, traceColRate, traceColArrivals, traceColPayload)
	case strings.TrimSpace(header[1]) == traceColRate:
	case strings.TrimSpace(header[1]) == traceColArrivals:
		counts = true
	default:
		return nil, fmt.Errorf("%w: %w: trace csv: second column %q, want %s or %s",
			ErrInvalidScenario, ErrInvalidSchedule, header[1], traceColRate, traceColArrivals)
	}
	hasPayload := len(header) == 3
	if hasPayload && strings.TrimSpace(header[2]) != traceColPayload {
		return nil, fmt.Errorf("%w: %w: trace csv: third column %q, want %s",
			ErrInvalidScenario, ErrInvalidSchedule, header[2], traceColPayload)
	}

	rows := make([]TraceRow, 0, len(records)-1)
	for line, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%w: %w: trace csv line %d: %d fields, want %d",
				ErrInvalidScenario, ErrInvalidSchedule, line+2, len(rec), len(header))
		}
		var row TraceRow
		fields := []struct {
			name string
			dst  *float64
		}{{traceColTime, &row.AtSec}, {header[1], &row.RatePerSec}}
		if hasPayload {
			fields = append(fields, struct {
				name string
				dst  *float64
			}{traceColPayload, &row.PayloadBytes})
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[i]), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: %w: trace csv line %d: %s %q is not a finite number",
					ErrInvalidScenario, ErrInvalidSchedule, line+2, f.name, rec[i])
			}
			*f.dst = v
		}
		rows = append(rows, row)
	}
	if counts {
		if rows, err = countsToRates(rows); err != nil {
			return nil, err
		}
	}
	if err := validateTraceRows(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// countsToRates converts count-mode records (arrivals per window, final row
// a horizon marker) into rate form. It needs the timestamps ordered to form
// windows, so it enforces the timeline rules on the raw records first.
func countsToRates(rows []TraceRow) ([]TraceRow, error) {
	times := make([]float64, len(rows))
	for i, r := range rows {
		times[i] = r.AtSec
	}
	if err := validateTimeline("trace row", times); err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%w: trace needs at least 2 rows, got %d", ErrInvalidScenario, len(rows))
	}
	last := rows[len(rows)-1]
	if last.RatePerSec != 0 {
		return nil, fmt.Errorf("%w: %w: final count-mode row must carry 0 arrivals (horizon marker), got %v",
			ErrInvalidScenario, ErrInvalidSchedule, last.RatePerSec)
	}
	var total float64
	for i := range rows[:len(rows)-1] {
		if !finiteNonNeg(rows[i].RatePerSec) {
			return nil, fmt.Errorf("%w: trace arrivals %v at %v s", ErrInvalidScenario, rows[i].RatePerSec, rows[i].AtSec)
		}
		total += rows[i].RatePerSec
		rows[i].RatePerSec /= rows[i+1].AtSec - rows[i].AtSec
	}
	// The horizon row holds the trace's overall mean rate, which normalizes
	// to scale ~1: a replay outliving its trace settles at the mean load.
	rows[len(rows)-1].RatePerSec = total / (last.AtSec - rows[0].AtSec)
	return rows, nil
}

// LoadTraceCSV reads and parses a trace file in the format of ParseTraceCSV.
func LoadTraceCSV(path string) ([]TraceRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	rows, err := ParseTraceCSV(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return rows, nil
}

// Substream tags of the modulator trajectories, fed through des.SubstreamSeed
// so a spec seed never collides with the simulator's own cell substreams.
const (
	mmppSubstream  = 0x4d4d5050 // "MMPP"
	onoffSubstream = 0x4f4e4f46 // "ONOF"
)

func (tp Temporal) validateMMPP() error {
	if tp.Sources < 1 {
		return fmt.Errorf("%w: mmpp needs at least 1 source, got %d", ErrInvalidScenario, tp.Sources)
	}
	if !finitePos(tp.MeanOnSec) || !finitePos(tp.MeanOffSec) {
		return fmt.Errorf("%w: mmpp mean sojourns on=%v off=%v must be positive",
			ErrInvalidScenario, tp.MeanOnSec, tp.MeanOffSec)
	}
	if !finitePos(tp.HorizonSec) {
		return fmt.Errorf("%w: mmpp horizon %v must be positive", ErrInvalidScenario, tp.HorizonSec)
	}
	if tp.PeriodSec != 0 {
		return fmt.Errorf("%w: mmpp temporal profile cannot be periodic", ErrInvalidScenario)
	}
	if tp.ParetoAlpha != 0 {
		return fmt.Errorf("%w: pareto_alpha is an onoff parameter, not mmpp", ErrInvalidScenario)
	}
	// Bound the pre-sampled trajectory: expected transitions are at most
	// horizon * sources * max(1/on, 1/off).
	if jumps := tp.HorizonSec * float64(tp.Sources) * math.Max(1/tp.MeanOnSec, 1/tp.MeanOffSec); jumps > 4e6 {
		return fmt.Errorf("%w: mmpp trajectory of ~%.0f transitions is too long (max 4e6); shorten the horizon or slow the sources",
			ErrInvalidScenario, jumps)
	}
	return nil
}

// compileMMPP pre-samples the superposition of Sources independent
// exponential on/off sources into a deterministic step schedule. With r
// sources off, the aggregate rate scale is (M-r)/(M*pOn) where pOn is the
// stationary on-probability, so the stationary mean scale is exactly 1 and
// the modulated load fluctuates around the configured baseline. The
// trajectory depends only on (Seed, Sources, MeanOnSec, MeanOffSec,
// HorizonSec) — never on the simulator's seed or engine layout — so serial
// and sharded runs see the same compiled schedule and stay bit-identical.
func (tp Temporal) compileMMPP() schedule {
	m := float64(tp.Sources)
	alpha := 1 / tp.MeanOnSec // on -> off rate per source
	beta := 1 / tp.MeanOffSec // off -> on rate per source
	pOn := tp.MeanOnSec / (tp.MeanOnSec + tp.MeanOffSec)
	str := des.NewStream(des.SubstreamSeed(tp.Seed, mmppSubstream))

	// Stationary initial state: each source independently on with pOn.
	off := 0
	for i := 0; i < tp.Sources; i++ {
		if !str.Bernoulli(pOn) {
			off++
		}
	}
	scale := func(off int) float64 { return (m - float64(off)) / (m * pOn) }
	steps := []Step{{AtSec: 0, Scale: scale(off)}}
	t := 0.0
	for {
		onToOff := (m - float64(off)) * alpha
		total := onToOff + float64(off)*beta
		t += str.Exponential(1 / total)
		if t >= tp.HorizonSec {
			break
		}
		if str.Bernoulli(onToOff / total) {
			off++
		} else {
			off--
		}
		steps = append(steps, Step{AtSec: t, Scale: scale(off)})
	}
	return schedule{steps: steps}
}

func (tp Temporal) validateOnOff() error {
	if tp.Sources != 0 {
		return fmt.Errorf("%w: sources is an mmpp parameter, not onoff", ErrInvalidScenario)
	}
	if !finitePos(tp.MeanOnSec) || !finitePos(tp.MeanOffSec) {
		return fmt.Errorf("%w: onoff mean sojourns on=%v off=%v must be positive",
			ErrInvalidScenario, tp.MeanOnSec, tp.MeanOffSec)
	}
	if !(tp.ParetoAlpha > 1 && tp.ParetoAlpha < 2) {
		return fmt.Errorf("%w: onoff pareto alpha %v outside (1, 2), the finite-mean self-similar regime",
			ErrInvalidScenario, tp.ParetoAlpha)
	}
	if !finitePos(tp.HorizonSec) {
		return fmt.Errorf("%w: onoff horizon %v must be positive", ErrInvalidScenario, tp.HorizonSec)
	}
	if tp.PeriodSec != 0 {
		return fmt.Errorf("%w: onoff temporal profile cannot be periodic", ErrInvalidScenario)
	}
	if jumps := tp.HorizonSec * (1/tp.MeanOnSec + 1/tp.MeanOffSec); jumps > 4e6 {
		return fmt.Errorf("%w: onoff trajectory of ~%.0f transitions is too long (max 4e6); shorten the horizon or slow the source",
			ErrInvalidScenario, jumps)
	}
	return nil
}

// compileOnOff pre-samples a single on/off source with Pareto sojourns
// (tail index in (1, 2): finite mean, infinite variance — the construction
// whose aggregate is self-similar). During on phases the scale is
// (on+off)/on so the stationary mean scale is 1; off phases carry scale 0.
// Deterministic in the spec seed, exactly like the MMPP trajectory.
func (tp Temporal) compileOnOff() schedule {
	a := tp.ParetoAlpha
	// Pareto scale parameters matching the declared mean sojourns:
	// E[X] = xm * a/(a-1)  =>  xm = mean * (a-1)/a.
	xmOn := tp.MeanOnSec * (a - 1) / a
	xmOff := tp.MeanOffSec * (a - 1) / a
	scaleOn := (tp.MeanOnSec + tp.MeanOffSec) / tp.MeanOnSec
	str := des.NewStream(des.SubstreamSeed(tp.Seed, onoffSubstream))

	on := str.Bernoulli(tp.MeanOnSec / (tp.MeanOnSec + tp.MeanOffSec))
	t := 0.0
	var steps []Step
	for t < tp.HorizonSec {
		s := 0.0
		xm := xmOff
		if on {
			s = scaleOn
			xm = xmOn
		}
		steps = append(steps, Step{AtSec: t, Scale: s})
		// Pareto by inversion: X = xm * U^(-1/a) with U on (0, 1].
		t += xm * math.Pow(1-str.Uniform(), -1/a)
		on = !on
	}
	return schedule{steps: steps}
}
