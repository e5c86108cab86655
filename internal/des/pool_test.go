package des

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestEventPoolRecycling pins the freelist contract: a fired event's record
// returns to the pool, is handed out again by the next Schedule, and carries
// no stale state into its next life.
func TestEventPoolRecycling(t *testing.T) {
	sim := NewSimulation()
	h1, err := sim.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Step() {
		t.Fatal("Step should fire the event")
	}
	if sim.FreeEvents() != 1 {
		t.Fatalf("free events = %d, want 1 (fired record recycled)", sim.FreeEvents())
	}
	if h1.Pending() || h1.Canceled() {
		t.Error("handle of a fired event must be expired")
	}
	if !math.IsNaN(h1.Time()) {
		t.Error("expired handle should report NaN time")
	}

	// A cancelled-then-recycled record must not leak its cancellation.
	fired := false
	h2, err := sim.Schedule(2, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if sim.FreeEvents() != 0 {
		t.Fatalf("free events = %d, want 0 (record reused)", sim.FreeEvents())
	}
	// The stale handle must not be able to cancel the reused record.
	h1.Cancel()
	if h2.Canceled() {
		t.Fatal("stale handle cancelled an unrelated reused event")
	}
	sim.Run()
	if !fired {
		t.Fatal("reused event did not fire")
	}

	// And a genuinely cancelled event is collected, recycled, and its reuse
	// starts uncancelled.
	h3, _ := sim.Schedule(3, func() {})
	h3.Cancel()
	sim.Run()
	h4, _ := sim.Schedule(4, func() {})
	if h4.Canceled() {
		t.Error("recycled record carried a stale cancellation")
	}
	if !h4.Pending() {
		t.Error("fresh event should be pending")
	}
	h3.Cancel() // stale: must be a no-op
	if h4.Canceled() {
		t.Error("stale cancel after recycling reached the new event")
	}
}

// TestEventRecordSize pins the event record at 48 bytes, the allocator size
// class it has always had: the true key, filing time, generation and
// cancellation bit share it without growing it.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 48 {
		t.Errorf("Event is %d bytes, want 48", n)
	}
}

// TestSelfCancelDuringAction pins the release-before-fire rule: an action
// cancelling its own (already fired) event is a no-op and cannot corrupt the
// record the freelist may immediately hand to a nested Schedule.
func TestSelfCancelDuringAction(t *testing.T) {
	sim := NewSimulation()
	var self Handle
	nestedFired := false
	self, _ = sim.Schedule(1, func() {
		self.Cancel() // our own record: already released, must be a no-op
		if _, err := sim.ScheduleAfter(1, func() { nestedFired = true }); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	})
	sim.Run()
	if !nestedFired {
		t.Fatal("self-cancel leaked into the recycled record of the nested event")
	}
}

// TestScheduleFireSteadyStateAllocs pins the kernel's allocation-free
// steady-state contract for both event-list implementations: once the
// freelist has warmed up, a schedule/fire cycle performs zero allocations.
func TestScheduleFireSteadyStateAllocs(t *testing.T) {
	for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
		sim := NewSimulationQueue(kind)
		action := func() {}
		cycle := func() {
			for i := 0; i < 64; i++ {
				if _, err := sim.ScheduleAfter(float64(i%7), action); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				sim.Step()
			}
		}
		// Warm the freelist and the event-list capacities (the calendar's
		// bucket slices converge to their peak occupancy over several cycles
		// as the advancing clock shifts events across bucket slots).
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(10, cycle); avg > 0 {
			t.Errorf("queue kind %d: %.2f allocs per 64-event cycle, want 0", kind, avg)
		}
	}
}

// TestCalendarHeapDifferential is the differential property test of the two
// event-list implementations: for randomized schedules — clustered and
// dispersed times, exact ties, nested scheduling, cancellations — the
// calendar queue must pop the exact (Time, seq) sequence the binary heap
// pops.
func TestCalendarHeapDifferential(t *testing.T) {
	type popped struct {
		at  float64
		tag int
	}
	run := func(kind QueueKind, seed int64) []popped {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSimulationQueue(kind)
		var got []popped
		tag := 0
		var handles []Handle
		var schedule func(at float64)
		schedule = func(at float64) {
			id := tag
			tag++
			h, err := sim.Schedule(at, func() {
				got = append(got, popped{sim.Now(), id})
				// Nested scheduling from inside actions, deterministic in the
				// pop order (which is what the test verifies).
				if id%5 == 0 {
					schedule(sim.Now() + 0.25)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for i := 0; i < 400; i++ {
			switch rng.Intn(4) {
			case 0: // clustered times with frequent exact ties
				schedule(float64(rng.Intn(8)))
			case 1: // dispersed times spanning many calendar years
				schedule(rng.Float64() * 1e4)
			case 2: // fine-grained fractional times within one year
				schedule(rng.Float64())
			default: // negative-free mixture around the origin
				schedule(float64(rng.Intn(100)) / 16)
			}
		}
		// Cancel a deterministic subset of the top-level events (the cancel
		// loop runs before any event fires, so handles holds exactly the 400
		// initial schedules).
		for i, h := range handles {
			if i%7 == 0 {
				h.Cancel()
			}
		}
		sim.Run()
		return got
	}
	for seed := int64(1); seed <= 10; seed++ {
		heapSeq := run(HeapQueue, seed)
		calSeq := run(CalendarQueue, seed)
		if len(heapSeq) != len(calSeq) {
			t.Fatalf("seed %d: heap popped %d events, calendar %d", seed, len(heapSeq), len(calSeq))
		}
		for i := range heapSeq {
			if heapSeq[i] != calSeq[i] {
				t.Fatalf("seed %d: pop %d differs: heap %+v, calendar %+v", seed, i, heapSeq[i], calSeq[i])
			}
		}
	}
}

// TestCalendarResizeKeepsOrder drives the calendar through growth and
// shrinkage (bucket doubling/halving) and checks against a heap reference.
func TestCalendarResizeKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cal := newCalQueue()
	ref := &binHeap{}
	seq := uint64(0)
	push := func(at float64) {
		cal.push(entry{key: key{at, seq}})
		ref.push(entry{key: key{at, seq}})
		seq++
	}
	popBoth := func() {
		a, aok := cal.front()
		b, bok := ref.front()
		switch {
		case !aok && !bok:
			return
		case aok != bok:
			t.Fatalf("size mismatch: cal %v, heap %v", aok, bok)
		case a != b:
			t.Fatalf("order mismatch: cal (%v,%d), heap (%v,%d)", a.t, a.seq, b.t, b.seq)
		}
		cal.pop()
		ref.pop()
	}
	// Grow to a few hundred events, drain to near-empty, regrow, drain fully.
	for i := 0; i < 500; i++ {
		push(rng.Float64() * 1e3)
	}
	for i := 0; i < 490; i++ {
		popBoth()
	}
	for i := 0; i < 200; i++ {
		push(1e3 + rng.Float64()*10) // behind and ahead of the cursor's year
		if i%3 == 0 {
			push(rng.Float64()) // rewind the cursor
		}
	}
	for cal.size() > 0 {
		popBoth()
	}
	popBoth() // both empty
}
