package des

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// run fires events until none is left and returns how many fired; unlike
// RunUntil(+Inf) it leaves the clock at the last event.
func run(s *Simulation) uint64 {
	var n uint64
	for s.fireNext(math.Inf(1)) {
		n++
	}
	return n
}

// pending counts the records the event list and the lanes hold: the
// scheduled events plus the cancelled ones not yet collected.
func pending(s *Simulation) int {
	n := s.list.size()
	for _, l := range s.lanes {
		n += l.n
	}
	return n
}

// scheduled reports whether h's event is still to fire (not fired, re-armed,
// cancelled or collected).
func scheduled(h Handle) bool { return h.ev != nil && h.ev.gen == h.gen }

// canceled reports whether h's event was cancelled and its record not yet
// collected.
func canceled(h Handle) bool { return h.ev != nil && h.ev.gen == h.gen|1 }

func TestScheduleAndRunOrder(t *testing.T) {
	sim := NewSimulation()
	var order []int
	if _, err := sim.Schedule(3, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Schedule(1, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Schedule(2, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	n := run(sim)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events executed out of order: %v", order)
	}
	if sim.Now() != 3 {
		t.Errorf("clock = %v, want 3", sim.Now())
	}
	if sim.ProcessedEvents() != 3 {
		t.Errorf("processed = %d", sim.ProcessedEvents())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	sim := NewSimulation()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := sim.Schedule(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	run(sim)
	for i, v := range order {
		if i != v {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestScheduleAfterAndNestedScheduling(t *testing.T) {
	sim := NewSimulation()
	var times []float64
	var recurse func()
	count := 0
	recurse = func() {
		times = append(times, sim.Now())
		count++
		if count < 5 {
			if _, err := sim.ScheduleAfter(2, recurse); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	if _, err := sim.ScheduleAfter(1, recurse); err != nil {
		t.Fatal(err)
	}
	run(sim)
	want := []float64{1, 3, 5, 7, 9}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestCancel(t *testing.T) {
	sim := NewSimulation()
	fired := false
	ev, err := sim.Schedule(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if !canceled(ev) {
		t.Error("cancelled handle should report cancelled")
	}
	run(sim)
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling the zero Handle or an already-cancelled event must not panic.
	var zero Handle
	zero.Cancel()
	if canceled(zero) {
		t.Error("zero handle reports cancelled")
	}
	if !math.IsNaN(zero.Time()) {
		t.Error("zero handle should have NaN time")
	}
	ev.Cancel()
}

func TestRunUntil(t *testing.T) {
	sim := NewSimulation()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		if _, err := sim.Schedule(tm, func() { fired = append(fired, tm) }); err != nil {
			t.Fatal(err)
		}
	}
	n := sim.RunUntil(3)
	if n != 3 {
		t.Errorf("executed %d events, want 3 (inclusive boundary)", n)
	}
	if sim.Now() != 3 {
		t.Errorf("clock = %v, want 3", sim.Now())
	}
	if pending(sim) != 2 {
		t.Errorf("pending = %d, want 2", pending(sim))
	}
	// Advancing beyond the last event leaves the clock at the horizon.
	sim.RunUntil(10)
	if sim.Now() != 10 {
		t.Errorf("clock = %v, want 10", sim.Now())
	}
}

func TestScheduleErrors(t *testing.T) {
	sim := NewSimulation()
	if _, err := sim.Schedule(1, func() {}); err != nil {
		t.Fatal(err)
	}
	run(sim)
	if _, err := sim.Schedule(0.5, func() {}); !errors.Is(err, ErrInvalidTime) {
		t.Error("scheduling in the past should fail")
	}
	if _, err := sim.Schedule(math.NaN(), func() {}); !errors.Is(err, ErrInvalidTime) {
		t.Error("NaN time should fail")
	}
	if _, err := sim.Schedule(math.Inf(1), func() {}); !errors.Is(err, ErrInvalidTime) {
		t.Error("infinite time should fail")
	}
	if _, err := sim.Schedule(5, nil); !errors.Is(err, ErrInvalidTime) {
		t.Error("nil action should fail")
	}
}

func TestStepOnEmptyCalendar(t *testing.T) {
	sim := NewSimulation()
	if sim.Step() {
		t.Error("Step on empty calendar should return false")
	}
	if run(sim) != 0 {
		t.Error("Run on empty calendar should execute nothing")
	}
}

func TestStreamExponentialMean(t *testing.T) {
	s := NewStream(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want 5", mean)
	}
	if s.Exponential(0) != 0 || s.Exponential(-1) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestStreamGeometricMean(t *testing.T) {
	s := NewStream(2)
	const n = 200000
	var sum float64
	minSeen := math.MaxInt64
	for i := 0; i < n; i++ {
		v := s.Geometric(25)
		if v < minSeen {
			minSeen = v
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-25) > 0.5 {
		t.Errorf("geometric mean = %v, want 25", mean)
	}
	if minSeen < 1 {
		t.Errorf("geometric variates must be >= 1, got %d", minSeen)
	}
	if s.Geometric(1) != 1 || s.Geometric(0.5) != 1 {
		t.Error("mean <= 1 should yield the constant 1")
	}
}

func TestStreamUniformAndBernoulli(t *testing.T) {
	s := NewStream(3)
	const n = 100000
	var sum float64
	trueCount := 0
	for i := 0; i < n; i++ {
		u := s.Uniform()
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		sum += u
		if s.Bernoulli(0.3) {
			trueCount++
		}
	}
	if math.Abs(sum/n-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want 0.5", sum/n)
	}
	frac := float64(trueCount) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) fraction = %v", frac)
	}
}

func TestStreamReproducible(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uniform() != b.Uniform() {
			t.Fatal("same seed must yield the same sequence")
		}
	}
	c := NewStream(43)
	same := true
	a = NewStream(42)
	for i := 0; i < 10; i++ {
		if a.Uniform() != c.Uniform() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different sequences")
	}
}

func TestStreamIntn(t *testing.T) {
	s := NewStream(7)
	if s.Intn(0) != 0 || s.Intn(-3) != 0 {
		t.Error("Intn with n <= 0 should return 0")
	}
	for i := 0; i < 1000; i++ {
		v := s.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

// TestEarlierMatchesBefore checks the branch-free key comparison against
// before on non-negative times with exact ties, adjacent floats, and both
// zeros, which must compare equal.
func TestEarlierMatchesBefore(t *testing.T) {
	times := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0.02, math.Nextafter(0.02, 1), 1, 1e300}
	for _, at := range times {
		for _, bt := range times {
			for _, seqs := range [][2]uint64{{0, 1}, {1, 0}, {5, 5}, {0, math.MaxUint64}} {
				a, b := key{at, seqs[0]}, key{bt, seqs[1]}
				want := a.before(b)
				if got := a.earlier(b) == 1; got != want {
					t.Errorf("earlier(%v, %d, %v, %d) = %v, before says %v", at, seqs[0], bt, seqs[1], got, want)
				}
			}
		}
	}
}

// Property: RunUntil never executes events scheduled after the horizon and
// never leaves the clock before the horizon.
func TestRunUntilProperty(t *testing.T) {
	prop := func(times []uint16, horizonSeed uint16) bool {
		sim := NewSimulation()
		horizon := float64(horizonSeed % 1000)
		executed := 0
		expected := 0
		for _, tv := range times {
			at := float64(tv % 2000)
			if at <= horizon {
				expected++
			}
			if _, err := sim.Schedule(at, func() { executed++ }); err != nil {
				return false
			}
		}
		sim.RunUntil(horizon)
		return executed == expected && sim.Now() >= horizon
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
