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

// churn is the bookkeeping of one differential run: every event scheduled so
// far with its (time, seq) key, the handle it was scheduled with (zero for
// lane events), and the events cancelled while pending — directly or by a
// re-arm — which the reference leaves out.
type churn struct {
	sim       *Simulation
	scheduled []firedEvent
	handles   []Handle
	canceled  map[int]bool
	fired     []firedEvent

	// actionFor returns the action of the event with the given tag.
	actionFor func(tag int) func()
}

func newChurn(sim *Simulation) *churn {
	return &churn{sim: sim, canceled: map[int]bool{}}
}

// add registers the event just scheduled at key (at, seq) and returns its tag.
func (c *churn) add(at float64, seq uint64, h Handle) int {
	tag := len(c.scheduled)
	c.scheduled = append(c.scheduled, firedEvent{at, seq, tag})
	c.handles = append(c.handles, h)
	return tag
}

// fire records the firing of event tag at the current time.
func (c *churn) fire(tag int) {
	c.fired = append(c.fired, firedEvent{c.sim.Now(), c.scheduled[tag].seq, tag})
}

// cancel cancels event tag, as the reference sees it.
func (c *churn) cancel(tag int) {
	if h := c.handles[tag]; scheduled(h) {
		c.canceled[tag] = true
		h.Cancel()
	}
}

// reschedule re-arms the event behind the handle of tag delay seconds from
// now as a new event, and returns the new event's tag and whether the re-arm
// moved the record in place.
func (c *churn) reschedule(t testing.TB, tag int, delay float64) (int, bool) {
	t.Helper()
	h := c.handles[tag]
	if scheduled(h) {
		c.canceled[tag] = true
	}
	at, seq, next := c.sim.Now()+delay, c.sim.seq, len(c.scheduled)
	nh, err := c.sim.RescheduleAfter(h, delay, c.actionFor(next))
	if err != nil {
		t.Fatal(err)
	}
	if scheduled(h) {
		t.Fatal("the re-armed handle is still pending")
	}
	if c.sim.seq != seq+1 || nh.Time() != at {
		t.Fatalf("re-arm took %d sequence numbers and time %v, want 1 and %v", c.sim.seq-seq, nh.Time(), at)
	}
	return c.add(at, seq, nh), nh.ev == h.ev
}

// reference returns every scheduled, never-cancelled event sorted by
// (time, seq): the order the events must fire in.
func (c *churn) reference() []firedEvent {
	var ref []firedEvent
	for _, e := range c.scheduled {
		if !c.canceled[e.tag] {
			ref = append(ref, e)
		}
	}
	slices.SortFunc(ref, func(a, b firedEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return ref
}

// churnStats counts what one differential run exercised.
type churnStats struct {
	purges       int // batch purges of cancelled records
	inPlace      int // re-arms that moved a pending record in place
	earlier      int // re-arms of a pending event to before its filing key
	expired      int // re-arms of a fired or collected event
	selfRearms   int // re-arms from inside the event's own action
	afterCancels int // re-arms of a just-cancelled event
	repeated     int // re-arms of the handle a re-arm just returned
}

// runLaneChurn drives one randomized run mixing heap and lane scheduling
// with cancellations and re-arms issued from inside actions, and returns the
// fired sequence, the reference sequence and what the run exercised.
func runLaneChurn(t *testing.T, kind QueueKind, seed int64) (fired, ref []firedEvent, st churnStats) {
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
	c := newChurn(sim)
	budget := 6000 // events scheduled from inside actions
	delay := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(20)) / 100 // mostly before a long-lived filing key
		}
		return 1 + 4*rng.Float64()
	}
	rearm := func(tag int) int {
		h := c.handles[tag]
		pending, filed := scheduled(h), math.NaN()
		if pending {
			filed = h.ev.fileT
		} else if !canceled(h) {
			st.expired++
		}
		d := delay()
		next, inPlace := c.reschedule(t, tag, d)
		if inPlace {
			st.inPlace++
		}
		if pending && sim.Now()+d < filed {
			st.earlier++
		}
		return next
	}
	var schedule func()
	c.actionFor = func(tag int) func() {
		return func() {
			c.fire(tag)
			for k := 1 + rng.Intn(2); k > 0 && budget > 0; k-- {
				budget--
				schedule()
			}
			if budget <= 0 {
				return
			}
			// Cancel or re-arm a few recent events: pending ones, fired ones
			// and collected ones alike.
			for k := rng.Intn(6); k > 0; k-- {
				victim := len(c.handles) - 1 - rng.Intn(min(len(c.handles), 400))
				if c.handles[victim] == (Handle{}) {
					continue // a lane event: not cancellable
				}
				before := sim.canceled
				switch rng.Intn(6) {
				case 0, 1, 2:
					c.cancel(victim)
				case 3:
					rearm(victim)
				case 4:
					c.cancel(victim)
					rearm(victim)
					st.afterCancels++
				default:
					rearm(rearm(victim))
					st.repeated++
				}
				if sim.canceled < before {
					st.purges++
				}
			}
			if c.handles[tag] != (Handle{}) && rng.Intn(8) == 0 {
				rearm(tag)
				st.selfRearms++
			}
		}
	}
	schedule = func() {
		at, seq, tag := sim.Now(), sim.seq, len(c.scheduled)
		action := c.actionFor(tag)
		var h Handle
		var err error
		switch r := rng.Intn(6); {
		case r < 3:
			at += laneDelays[r]
			err = lanes[r].Schedule(action)
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
		if h != (Handle{}) {
			at = h.Time()
		}
		c.add(at, seq, h)
	}
	for i := 0; i < 200; i++ {
		schedule()
	}
	run(sim)
	if pending(sim) != 0 {
		t.Fatalf("%d records left after Run", pending(sim))
	}
	return c.fired, c.reference(), st
}

// TestLaneDifferential is the randomized differential test of the lanes,
// the in-place re-arm and the batch purge: interleaving Schedule,
// Lane.Schedule on three lanes, Cancel and RescheduleAfter from inside
// actions, the fired sequence must be exactly the (time, seq) order of the
// never-cancelled events, on the heap and on the calendar queue. The re-arms
// cover a later and an earlier time than the record's filing key, repeated
// re-arms, re-arms from inside the event's own action, after Cancel, and of
// expired handles.
func TestLaneDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
			fired, ref, st := runLaneChurn(t, kind, seed)
			if !slices.Equal(fired, ref) {
				t.Fatalf("seed %d, kind %d: fired %d events out of (time, seq) order (reference %d)",
					seed, kind, len(fired), len(ref))
			}
			if st.purges == 0 || st.inPlace == 0 || st.earlier == 0 || st.expired == 0 ||
				st.selfRearms == 0 || st.afterCancels == 0 || st.repeated == 0 {
				t.Errorf("seed %d, kind %d: a case went unexercised: %+v", seed, kind, st)
			}
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
		// Lane events count towards Pending but are never cancelled, so
		// they do not bring a purge closer.
		var old []Handle
		for i := 0; i < 2*purgeFloor; i++ {
			h, err := sim.Schedule(float64(2+i), func() {})
			if err != nil {
				t.Fatal(err)
			}
			old = append(old, h)
			if err = lane.Schedule(func() {}); err != nil {
				t.Fatal(err)
			}
		}
		// Cancel until just before the purge threshold: every cancelled
		// handle still reports Canceled.
		for _, h := range old[:purgeFloor] {
			h.Cancel()
		}
		for i, h := range old[:purgeFloor] {
			if !canceled(h) || scheduled(h) {
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
			if !canceled(h) {
				collected++
				if !math.IsNaN(h.Time()) {
					t.Fatalf("kind %d: a collected handle still reports a time", kind)
				}
			}
		}
		if collected != sim.FreeEvents() || pending(sim) != 2*len(old)-collected {
			t.Fatalf("kind %d: %d of %d handles expired, but %d records freed and %d pending",
				kind, collected, len(old), sim.FreeEvents(), pending(sim))
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
			if !canceled(h) {
				h.Cancel()
			}
		}
		for _, h := range fresh {
			if !scheduled(h) {
				t.Fatalf("kind %d: a stale Cancel reached a reused record", kind)
			}
		}
		run(sim)
		if fired != collected {
			t.Fatalf("kind %d: %d of %d reused events fired", kind, fired, collected)
		}
	}
}

// TestPendingBoundUnderChurn pins the space bounds under timer churn: a set
// of timers restarted four at a time on every tick. Restarted by Cancel and
// ScheduleAfter at a random delay, Pending never exceeds twice the live
// count plus the purge floor. Re-armed in place with RescheduleAfter at each
// timer's own fixed delay — a settled TCP retransmission timeout, so no new
// time precedes a filing key — no cancelled record ever exists, no purge
// runs, and Pending never exceeds the live count.
func TestPendingBoundUnderChurn(t *testing.T) {
	const timers = 300
	for _, rearm := range []bool{false, true} {
		for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
			sim := NewSimulationQueue(kind)
			tick, err := sim.Lane(0.02)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			rto := make([]Handle, timers)
			delay := make([]float64, timers)
			for i := range rto {
				delay[i] = 1 + rng.Float64()
				if rto[i], err = sim.ScheduleAfter(delay[i], func() {}); err != nil {
					t.Fatal(err)
				}
			}
			var step func()
			step = func() {
				for k := 0; k < 4; k++ {
					i := rng.Intn(timers)
					var err error
					if rearm {
						rto[i], err = sim.RescheduleAfter(rto[i], delay[i], func() {})
					} else {
						rto[i].Cancel()
						rto[i], err = sim.ScheduleAfter(1+rng.Float64(), func() {})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := tick.Schedule(step); err != nil {
					t.Fatal(err)
				}
			}
			if err := tick.Schedule(step); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 20000; n++ {
				sim.Step()
				live := 1 // the tick
				for _, h := range rto {
					if scheduled(h) {
						live++
					}
				}
				bound := 2*live + purgeFloor
				if rearm {
					bound = live
					if sim.canceled != 0 {
						t.Fatalf("kind %d step %d: in-place re-arms left %d cancelled records",
							kind, n, sim.canceled)
					}
				}
				if p := pending(sim); p > bound {
					t.Fatalf("kind %d, re-arm %v, step %d: %d pending records for %d live events",
						kind, rearm, n, p, live)
				}
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
				if err := lanes[i%len(lanes)].Schedule(action); err != nil {
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
			if err := lane.Schedule(chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lane.Schedule(chain); err != nil {
		t.Fatal(err)
	}
	if n := sim.RunUntil(3); n != 3 || sim.Now() != 3 {
		t.Fatalf("RunUntil(3) fired %d events, clock %v; want 3 events at 3", n, sim.Now())
	}
	if n := run(sim); n != 7 || pending(sim) != 0 {
		t.Fatalf("run fired %d events, %d pending; want 7 and 0", n, pending(sim))
	}
	if err := lane.Schedule(chain); err != nil {
		t.Fatal(err)
	}
	if n := sim.RunUntil(math.Inf(1)); n != 1 || pending(sim) != 0 {
		t.Fatalf("RunUntil(+Inf) fired %d events, %d pending; want 1 and 0", n, pending(sim))
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
	if err := a.Schedule(nil); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("Schedule(nil): err = %v, want ErrInvalidTime", err)
	}
}
