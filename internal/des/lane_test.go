package des

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// laneDelays are the delays of the differential test's lanes: a zero delay
// (same-time events behind the current one), the radio block period, and a
// float sum, as the simulator's ACK path uses.
var laneDelays = []float64{0, 0.02, 0.1 + 0.05}

// firedEvent identifies one event of the differential test by its place in
// the (Time, seq) order and the tag it was scheduled with.
type firedEvent struct {
	at  float64
	seq uint64
	tag int
}

// runLaneChurn drives one randomized run mixing heap and lane scheduling with
// cancellations issued from inside actions, and returns the fired sequence,
// the reference sequence (every scheduled, never-cancelled event sorted by
// (Time, seq)) and the number of batch purges observed.
func runLaneChurn(t *testing.T, kind QueueKind, seed int64) (fired, ref []firedEvent, purges int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim := NewSimulationQueue(kind)
	lanes := make([]*Lane, len(laneDelays))
	for i, d := range laneDelays {
		l, err := sim.Lane(d)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = l
	}
	var (
		scheduled []firedEvent
		handles   []Handle
		canceled  = map[int]bool{}
		budget    = 6000 // events scheduled from inside actions
	)
	var schedule func()
	schedule = func() {
		tag := len(handles)
		action := func() {
			fired = append(fired, firedEvent{sim.Now(), scheduled[tag].seq, tag})
			for k := 1 + rng.Intn(2); k > 0 && budget > 0; k-- {
				budget--
				schedule()
			}
			// Cancel a few recent events: pending ones (heap and lane),
			// fired ones and collected ones alike.
			for k := rng.Intn(4); k > 0; k-- {
				victim := len(handles) - 1 - rng.Intn(min(len(handles), 400))
				h := handles[victim]
				wasPending := h.Pending()
				before := sim.canceled
				h.Cancel()
				if wasPending {
					canceled[victim] = true
				}
				if sim.canceled < before {
					purges++
				}
			}
		}
		var h Handle
		var err error
		switch r := rng.Intn(6); {
		case r < 3:
			h, err = lanes[r].Schedule(action)
		case r == 3: // exact ties with the lanes' fire times
			h, err = sim.ScheduleAfter(laneDelays[rng.Intn(len(laneDelays))], action)
		case r == 4:
			h, err = sim.ScheduleAfter(float64(rng.Intn(20))/100, action)
		default: // long-lived, so cancellations pile up towards a purge
			h, err = sim.ScheduleAfter(1+4*rng.Float64(), action)
		}
		if err != nil {
			t.Fatal(err)
		}
		scheduled = append(scheduled, firedEvent{h.Time(), h.ev.seq, tag})
		handles = append(handles, h)
	}
	for i := 0; i < 200; i++ {
		schedule()
	}
	sim.Run()
	for _, e := range scheduled {
		if !canceled[e.tag] {
			ref = append(ref, e)
		}
	}
	slices.SortFunc(ref, func(a, b firedEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if sim.Pending() != 0 {
		t.Fatalf("%d records left after Run", sim.Pending())
	}
	return fired, ref, purges
}

// TestLaneDifferential is the randomized differential test of the lanes and
// the batch purge: interleaving Schedule, Lane.Schedule on three lanes and
// Cancel of heap and lane events from inside actions, the fired sequence
// must be exactly the (Time, seq) order of the never-cancelled events, and
// the heap and the calendar queue must fire the same sequence.
func TestLaneDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		heapFired, ref, purges := runLaneChurn(t, HeapQueue, seed)
		if purges == 0 {
			t.Errorf("seed %d: no batch purge exercised", seed)
		}
		if !slices.Equal(heapFired, ref) {
			t.Fatalf("seed %d: heap fired %d events out of (Time, seq) order (reference %d)", seed, len(heapFired), len(ref))
		}
		calFired, _, _ := runLaneChurn(t, CalendarQueue, seed)
		if !slices.Equal(calFired, heapFired) {
			t.Fatalf("seed %d: calendar fired a different sequence from the heap", seed)
		}
	}
}

// TestCanceledUntilCollected pins the Handle contract under batch
// collection: Canceled stays true until the record is collected, a purge
// expires the handle, and a stale Cancel never reaches the record's next
// life.
func TestCanceledUntilCollected(t *testing.T) {
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		sim := NewSimulationQueue(kind)
		lane, err := sim.Lane(1)
		if err != nil {
			t.Fatal(err)
		}
		var old []Handle
		for i := 0; i < 2*purgeFloor; i++ {
			h, err := sim.Schedule(float64(2+i), func() {})
			if err != nil {
				t.Fatal(err)
			}
			old = append(old, h)
			if h, err = lane.Schedule(func() {}); err != nil {
				t.Fatal(err)
			}
			old = append(old, h)
		}
		// Cancel until just before the purge threshold: every cancelled
		// handle still reports Canceled.
		for _, h := range old[:purgeFloor] {
			h.Cancel()
		}
		for i, h := range old[:purgeFloor] {
			if !h.Canceled() || h.Pending() {
				t.Fatalf("kind %d: handle %d not reported cancelled before collection", kind, i)
			}
		}
		if free := sim.FreeEvents(); free != 0 {
			t.Fatalf("kind %d: %d records collected before the purge threshold", kind, free)
		}
		// Cancelling every remaining record crosses the threshold.
		for _, h := range old[purgeFloor:] {
			h.Cancel()
		}
		if sim.FreeEvents() == 0 {
			t.Fatalf("kind %d: no purge after cancelling every record", kind)
		}
		collected := 0
		for _, h := range old {
			if !h.Canceled() {
				collected++
				if !math.IsNaN(h.Time()) {
					t.Fatalf("kind %d: a collected handle still reports a time", kind)
				}
			}
		}
		if collected != sim.FreeEvents() || sim.Pending() != len(old)-collected {
			t.Fatalf("kind %d: %d of %d handles expired, but %d records freed and %d pending",
				kind, collected, len(old), sim.FreeEvents(), sim.Pending())
		}
		// Reuse every freed record, then replay every stale Cancel.
		fired := 0
		var fresh []Handle
		for i := 0; i < collected; i++ {
			h, err := sim.Schedule(float64(3+i), func() { fired++ })
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, h)
		}
		for _, h := range old {
			if !h.Canceled() {
				h.Cancel()
			}
		}
		for _, h := range fresh {
			if !h.Pending() {
				t.Fatalf("kind %d: a stale Cancel reached a reused record", kind)
			}
		}
		sim.Run()
		if fired != collected {
			t.Fatalf("kind %d: %d of %d reused events fired", kind, fired, collected)
		}
	}
}

// TestPendingBoundUnderChurn pins the purge's space bound: with a set of
// timers cancelled and re-armed on every step (the TCP retransmission timer
// pattern), Pending never exceeds twice the live count plus the floor.
func TestPendingBoundUnderChurn(t *testing.T) {
	const timers = 300
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		sim := NewSimulationQueue(kind)
		tick, err := sim.Lane(0.02)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		rto := make([]Handle, timers)
		for i := range rto {
			if rto[i], err = sim.ScheduleAfter(1+rng.Float64(), func() {}); err != nil {
				t.Fatal(err)
			}
		}
		var step func()
		step = func() {
			for k := 0; k < 4; k++ {
				i := rng.Intn(timers)
				rto[i].Cancel()
				var err error
				if rto[i], err = sim.ScheduleAfter(1+rng.Float64(), func() {}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tick.Schedule(step); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tick.Schedule(step); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 20000; n++ {
			sim.Step()
			live := 1 // the tick
			for _, h := range rto {
				if h.Pending() {
					live++
				}
			}
			if p := sim.Pending(); p > 2*live+purgeFloor {
				t.Fatalf("kind %d step %d: %d pending records for %d live events", kind, n, p, live)
			}
		}
	}
}

// TestLaneScheduleFireSteadyStateAllocs pins the lanes' allocation-free
// steady state: once the freelist and the ring have warmed up, a lane
// schedule/fire cycle performs zero allocations.
func TestLaneScheduleFireSteadyStateAllocs(t *testing.T) {
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		sim := NewSimulationQueue(kind)
		lanes := make([]*Lane, len(laneDelays))
		for i, d := range laneDelays {
			var err error
			if lanes[i], err = sim.Lane(d); err != nil {
				t.Fatal(err)
			}
		}
		action := func() {}
		cycle := func() {
			for i := 0; i < 64; i++ {
				if _, err := lanes[i%len(lanes)].Schedule(action); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				sim.Step()
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(10, cycle); avg > 0 {
			t.Errorf("queue kind %d: %.2f allocs per 64-event lane cycle, want 0", kind, avg)
		}
	}
}

// TestRunUntilDrainsLanes checks RunUntil and Run when only lanes hold
// events: the horizon is respected, and both drain and terminate.
func TestRunUntilDrainsLanes(t *testing.T) {
	sim := NewSimulation()
	lane, err := sim.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	var chain func()
	chain = func() {
		fired++
		if fired < 10 {
			if _, err := lane.Schedule(chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := lane.Schedule(chain); err != nil {
		t.Fatal(err)
	}
	if n := sim.RunUntil(3); n != 3 || sim.Now() != 3 {
		t.Fatalf("RunUntil(3) fired %d events, clock %v; want 3 events at 3", n, sim.Now())
	}
	if n := sim.Run(); n != 7 || sim.Pending() != 0 {
		t.Fatalf("Run fired %d events, %d pending; want 7 and 0", n, sim.Pending())
	}
	if _, err := lane.Schedule(chain); err != nil {
		t.Fatal(err)
	}
	if n := sim.RunUntil(math.Inf(1)); n != 1 || sim.Pending() != 0 {
		t.Fatalf("RunUntil(+Inf) fired %d events, %d pending; want 1 and 0", n, sim.Pending())
	}
}

// TestLaneValidation checks Lane's errors and identity: invalid delays fail
// with ErrInvalidTime, and one delay always maps to one lane.
func TestLaneValidation(t *testing.T) {
	sim := NewSimulation()
	for _, d := range []float64{math.NaN(), -1, math.Inf(1)} {
		if _, err := sim.Lane(d); !errors.Is(err, ErrInvalidTime) {
			t.Errorf("Lane(%v): err = %v, want ErrInvalidTime", d, err)
		}
	}
	a, err := sim.Lane(0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sim.Lane(0.05)
	c, _ := sim.Lane(0.1)
	if a != b {
		t.Error("Lane returned two lanes for one delay")
	}
	if a == c {
		t.Error("Lane returned one lane for two delays")
	}
	if _, err := a.Schedule(nil); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("Schedule(nil): err = %v, want ErrInvalidTime", err)
	}
}
