package des

import (
	"math"
	"slices"
	"testing"
)

// fuzzLaneDelays are the lane delays FuzzEventOrder schedules on: a zero
// delay, a short one and a float sum.
var fuzzLaneDelays = []float64{0, 0.25, 0.1 + 0.05}

// maxFuzzOps caps the input bytes FuzzEventOrder decodes (two per
// operation), keeping each execution short.
const maxFuzzOps = 1024

// FuzzEventOrder decodes the input into a sequence of operations — Schedule,
// Lane.Schedule on three lanes, RescheduleAfter, Cancel, Step and RunUntil —
// run from outside the events' actions, then drains the calendar. On both
// event lists every event must fire at its scheduled time, never past the
// current RunUntil horizon, and in the (time, seq) order of the events that
// were never cancelled or re-armed while pending.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 40, 2, 0, 1, 1, 1, 2, 4, 0, 2, 1, 9, 5, 6, 3, 1})
	f.Add([]byte{0, 200, 2, 0, 10, 2, 0, 250, 3, 0, 5, 0, 0, 0, 4, 0, 2, 0, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 0, 0, 5, 0, 2, 0, 7, 4, 0, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, kind := range []QueueKind{HeapQueue, CalendarQueue} {
			runFuzzOps(t, kind, ops)
		}
	})
}

// runFuzzOps runs one decoded operation sequence on a Simulation of the
// given kind and checks its fired order against the reference.
func runFuzzOps(t *testing.T, kind QueueKind, ops []byte) {
	sim := NewSimulationQueue(kind)
	lanes := make([]*Lane, len(fuzzLaneDelays))
	for i, d := range fuzzLaneDelays {
		var err error
		if lanes[i], err = sim.Lane(d); err != nil {
			t.Fatal(err)
		}
	}
	c := newChurn(sim)
	horizon := math.Inf(1)
	c.actionFor = func(tag int) func() {
		return func() {
			if now := sim.Now(); now > horizon || now != c.scheduled[tag].at {
				t.Fatalf("event %d fired at %v: scheduled at %v, horizon %v", tag, now, c.scheduled[tag].at, horizon)
			}
			c.fire(tag)
		}
	}
	// withHandle lists the events scheduled with a handle; cancellable picks
	// the one of them b refers to, if any.
	var withHandle []int
	cancellable := func(b byte) (int, bool) {
		if len(withHandle) == 0 {
			return 0, false
		}
		return withHandle[int(b)%len(withHandle)], true
	}
	if len(ops) > maxFuzzOps {
		ops = ops[:maxFuzzOps]
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, ops[i+1]
		delay := float64(arg) / 32
		switch op {
		case 0:
			at, seq := sim.Now()+delay, sim.seq
			h, err := sim.ScheduleAfter(delay, c.actionFor(len(c.scheduled)))
			if err != nil {
				t.Fatal(err)
			}
			withHandle = append(withHandle, c.add(at, seq, h))
		case 1:
			l := int(arg) % len(lanes)
			at, seq := sim.Now()+fuzzLaneDelays[l], sim.seq
			if err := lanes[l].Schedule(c.actionFor(len(c.scheduled))); err != nil {
				t.Fatal(err)
			}
			c.add(at, seq, Handle{})
		case 2:
			if tag, ok := cancellable(arg); ok {
				next, _ := c.reschedule(t, tag, float64(arg%64)/16)
				withHandle = append(withHandle, next)
			}
		case 3:
			if tag, ok := cancellable(arg); ok {
				c.cancel(tag)
			}
		case 4:
			horizon = math.Inf(1)
			sim.Step()
		default:
			horizon = sim.Now() + delay
			sim.RunUntil(horizon)
			if sim.Now() != horizon {
				t.Fatalf("RunUntil(%v) left the clock at %v", horizon, sim.Now())
			}
		}
	}
	horizon = math.Inf(1)
	sim.Run()
	if ref := c.reference(); !slices.Equal(c.fired, ref) {
		t.Fatalf("kind %d: fired %v, want (time, seq) order %v", kind, c.fired, ref)
	}
	if sim.Pending() != 0 {
		t.Fatalf("kind %d: %d records left after Run", kind, sim.Pending())
	}
}
