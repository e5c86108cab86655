package stats

// TimeWeighted accumulates a piecewise-constant state variable (for example a
// queue length or the number of busy channels) and reports its time average.
//
// Call Update(t, v) whenever the variable changes value; the variable is
// assumed to hold its previous value on [lastT, t). The zero value is ready
// to use and starts measuring at time 0 with value 0; use Start to begin at a
// different origin (e.g. after a warm-up period).
type TimeWeighted struct {
	started  bool
	startT   float64
	lastT    float64
	lastV    float64
	integral float64
}

// Start begins the measurement interval at time t with current value v,
// discarding anything accumulated so far.
func (tw *TimeWeighted) Start(t, v float64) {
	*tw = TimeWeighted{started: true, startT: t, lastT: t, lastV: v}
}

// Update advances the clock to time t and records that the variable now holds
// value v. Calls with t earlier than the previous update are ignored except
// for recording the new value.
func (tw *TimeWeighted) Update(t, v float64) {
	if !tw.started {
		tw.Start(0, 0)
	}
	if t > tw.lastT {
		tw.integral += tw.lastV * (t - tw.lastT)
		tw.lastT = t
	}
	tw.lastV = v
}

// Mean returns the time average of the variable over [start, t], advancing the
// accumulated integral to time t first.
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started {
		return 0
	}
	if t > tw.lastT {
		tw.integral += tw.lastV * (t - tw.lastT)
		tw.lastT = t
	}
	elapsed := tw.lastT - tw.startT
	if elapsed <= 0 {
		return tw.lastV
	}
	return tw.integral / elapsed
}

// MeanAt returns the time average of the variable over [start, t] without
// advancing the accumulator: unlike Mean, the internal integral and clock are
// left untouched, so a later Mean(t') performs exactly the same float
// accumulation steps it would have performed had MeanAt never been called.
// Mid-run observers (the probe samplers of internal/sim) rely on this to read
// running averages without perturbing the bit-exact terminal statistics. The
// arithmetic mirrors Mean exactly, so MeanAt(t) equals a hypothetical final
// Mean(t) bit for bit.
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started {
		return 0
	}
	integral, lastT := tw.integral, tw.lastT
	if t > lastT {
		integral += tw.lastV * (t - lastT)
		lastT = t
	}
	elapsed := lastT - tw.startT
	if elapsed <= 0 {
		return tw.lastV
	}
	return integral / elapsed
}

// IntegralAt returns the accumulated time-integral of the variable over
// [start, t] without advancing the accumulator, mirroring MeanAt: the
// internal integral and clock are left untouched, and the arithmetic performs
// exactly the float operations a terminal read at t would perform. The
// batch-means loop of internal/sim differences IntegralAt values at batch
// boundaries, so a gauge can serve per-batch means without ever being reset —
// which keeps its terminal Mean bit-identical to an untouched accumulator's.
func (tw *TimeWeighted) IntegralAt(t float64) float64 {
	if !tw.started {
		return 0
	}
	integral := tw.integral
	if t > tw.lastT {
		integral += tw.lastV * (t - tw.lastT)
	}
	return integral
}

// Current returns the value recorded by the most recent update.
func (tw *TimeWeighted) Current() float64 { return tw.lastV }
