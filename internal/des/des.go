// Package des is a discrete-event simulation kernel: an event calendar with a
// simulation clock, deterministic tie-breaking, and reproducible random
// variate streams. It substitutes for the CSIM library used by the paper's
// authors to implement the detailed network-level GPRS simulator.
//
// The kernel is event-oriented rather than process-oriented: model code
// schedules callbacks at future simulation times. Determinism is guaranteed
// for a fixed seed because ties in event time are broken by scheduling order.
//
// # Allocation discipline
//
// The steady-state event path is allocation-free: fired and collected events
// are recycled through a per-Simulation freelist, shared by the event list
// and the lanes, so a long run allocates only while the pending set grows
// towards its peak size. Because event records are recycled, Schedule hands
// out value-type Handles carrying a generation number instead of raw event
// pointers: a Handle of an event that already fired or was collected (and
// whose record may since have been reused for an unrelated event) turns
// Cancel into a no-op instead of cancelling a stranger.
//
// # Event list selection
//
// Two event-list implementations sit behind one scheduler interface: a binary
// heap (the reference, and the default) and a Brown calendar queue
// (NewSimulationQueue(CalendarQueue)). Both order events by (time, sequence
// number) — a strict total order, because sequence numbers are unique within
// a Simulation — so the pop order, and therefore every simulation result, is
// bit-identical between the two. The heap remains the default: profiles of
// the GPRS workloads show the calendar's O(1) average enqueue does not beat
// the heap's cache-friendly sift at the calendar sizes the model produces
// (hundreds to a few thousand pending events); the calendar queue is kept
// selectable for larger topologies where it may win.
//
// Beside the event list, a Simulation keeps one FIFO lane per fixed delay
// (Simulation.Lane): Lane.Schedule appends an event at now + delay in O(1),
// without a sift. A FIFO needs no ordering work because it is already
// sorted by (time, sequence number): the clock never goes back, float64
// addition of a fixed delay is monotone in the clock, and sequence numbers
// only grow. Step pops the earliest of the event list's top and the lane
// heads under the same total order, so moving an event onto a lane changes
// neither the pop order nor any result.
//
// # Batch collection of cancelled events
//
// Cancel marks an event; its record stays in the event list or lane until it
// is collected. The Simulation counts the cancelled records it still holds;
// once they are more than half of Pending and more than a floor of 64, one
// O(n) pass removes and recycles them all (a heapify for the heap, an
// in-place filter of each calendar bucket and each lane). Until then a
// cancelled record is collected when it reaches the front. Pending therefore
// stays at most twice the live count plus the floor under cancel-and-re-arm
// churn such as a TCP retransmission timer restarted on every ACK, and dead
// records no longer cost a sift each.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidTime is returned when an event is scheduled in the past or at a
// non-finite time.
var ErrInvalidTime = errors.New("des: invalid event time")

// Event is a scheduled callback record. Model code never holds an Event
// directly — Schedule returns a Handle — because records are recycled through
// the simulation's freelist once they fire or their cancellation is
// collected.
type Event struct {
	// Time is the simulation time at which the event fires.
	Time float64
	// Action is invoked when the event fires.
	Action func()

	seq      uint64
	gen      uint64
	canceled bool
	sim      *Simulation // owner, whose count of uncollected cancellations Cancel bumps
}

// Handle is a cancellable reference to a scheduled event, from
// Simulation.Schedule or Lane.Schedule. The zero Handle is valid and refers
// to no event (Cancel is a no-op). A Handle expires when its event fires or
// its cancellation is collected — one at a time when the record reaches the
// front, or in a batch purge — at which point the record is recycled for a
// future event and the generation number the Handle carries stops matching,
// so Cancel and Canceled on an expired Handle are safe no-ops.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling the zero Handle, an
// already fired, or an already cancelled event is a no-op.
func (h Handle) Cancel() {
	if ev := h.ev; ev != nil && ev.gen == h.gen && !ev.canceled {
		ev.canceled = true
		ev.sim.noteCancel()
	}
}

// Canceled reports whether the event has been cancelled and its record not
// yet collected. It reports false for the zero Handle and for expired
// Handles (the event fired or its cancellation was collected).
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.canceled
}

// Pending reports whether the event is still scheduled (not yet fired,
// cancelled or collected).
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Time returns the absolute fire time of a pending event, or NaN for the
// zero Handle and for expired Handles.
func (h Handle) Time() float64 {
	if h.ev == nil || h.ev.gen != h.gen {
		return math.NaN()
	}
	return h.ev.Time
}

// eventList is the scheduler interface both event-list implementations
// (binary heap and calendar queue) satisfy. Implementations order events by
// (Time, seq) ascending; seq is unique per Simulation, so the order is a
// strict total order and pop sequences are implementation-independent.
type eventList interface {
	push(*Event)
	// pop removes and returns the earliest event, or nil when empty.
	pop() *Event
	// peek returns the earliest event without removing it, or nil when empty.
	peek() *Event
	size() int
	// purge releases every cancelled record and keeps the rest in order.
	purge()
}

// QueueKind selects the event-list implementation of a Simulation.
type QueueKind int

const (
	// HeapQueue is the binary-heap event list: the reference implementation
	// and the default (zero value).
	HeapQueue QueueKind = iota
	// CalendarQueue is the Brown calendar-queue event list: O(1) average
	// enqueue/dequeue under smooth event-time distributions. Pop order is
	// bit-identical to HeapQueue.
	CalendarQueue
)

// eventBefore is the scheduling order shared by every event list: earlier
// time first, scheduling order (seq) breaking ties.
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// binHeap is a hand-rolled binary heap over (Time, seq). It avoids the
// interface boxing and indirect calls of container/heap on the hottest loop
// of the simulator.
type binHeap struct {
	a []*Event
}

func (h *binHeap) size() int { return len(h.a) }

func (h *binHeap) peek() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *binHeap) push(ev *Event) {
	h.a = append(h.a, ev)
	h.siftUp(len(h.a) - 1)
}

func (h *binHeap) pop() *Event {
	n := len(h.a)
	if n == 0 {
		return nil
	}
	root := h.a[0]
	last := h.a[n-1]
	h.a[n-1] = nil
	h.a = h.a[:n-1]
	if n > 1 {
		h.a[0] = last
		h.siftDown(0)
	}
	return root
}

// purge releases every cancelled record and rebuilds the heap over the
// survivors in one O(n) pass (Floyd's heapify).
func (h *binHeap) purge() {
	kept := h.a[:0]
	for _, ev := range h.a {
		if ev.canceled {
			ev.sim.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	clear(h.a[len(kept):])
	h.a = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *binHeap) siftUp(i int) {
	ev := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = ev
}

func (h *binHeap) siftDown(i int) {
	n := len(h.a)
	ev := h.a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(h.a[r], h.a[child]) {
			child = r
		}
		if !eventBefore(h.a[child], ev) {
			break
		}
		h.a[i] = h.a[child]
		i = child
	}
	h.a[i] = ev
}

// purgeFloor is the number of uncollected cancelled records below which a
// Simulation never purges, however small its pending set: a purge is an O(n)
// pass, so it waits until it frees at least this many records.
const purgeFloor = 64

// Simulation owns the event calendar and the simulation clock. It is not safe
// for concurrent use; a simulation run is single-threaded (replications can
// run in parallel, each with its own Simulation).
type Simulation struct {
	now    float64
	list   eventList
	lanes  []*Lane
	seq    uint64
	events uint64

	// canceled counts cancelled records still held by the list or a lane:
	// they are collected one by one when they reach the front, or all at
	// once by purge.
	canceled int

	// free is the event-record freelist: fired and collected events are
	// recycled here, making the steady-state event path allocation-free.
	free []*Event

	// poolHits and poolMisses count freelist reuse versus fresh allocations;
	// they feed the runtime telemetry's pool-hit-rate metric. Plain counters:
	// a Simulation is single-goroutine by contract.
	poolHits, poolMisses uint64
}

// NewSimulation returns an empty simulation with the clock at time 0, using
// the binary-heap event list.
func NewSimulation() *Simulation {
	return NewSimulationQueue(HeapQueue)
}

// NewSimulationQueue returns an empty simulation using the given event-list
// implementation. Every QueueKind produces bit-identical event orderings; the
// choice affects performance only.
func NewSimulationQueue(kind QueueKind) *Simulation {
	s := &Simulation{}
	switch kind {
	case CalendarQueue:
		s.list = newCalQueue()
	default:
		s.list = &binHeap{}
	}
	return s
}

// Now returns the current simulation time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// ProcessedEvents returns the number of events executed so far.
func (s *Simulation) ProcessedEvents() uint64 { return s.events }

// Pending returns the number of event records held by the event list and the
// lanes: the scheduled events plus the cancelled ones not yet collected.
// Batch collection keeps it at most twice the scheduled count plus a small
// constant floor.
func (s *Simulation) Pending() int {
	n := s.list.size()
	for _, l := range s.lanes {
		n += l.n
	}
	return n
}

// FreeEvents returns the current size of the event freelist (recycled
// records awaiting reuse). It exists for allocation-budget tests.
func (s *Simulation) FreeEvents() int { return len(s.free) }

// acquire takes an event record off the freelist, or allocates one, and
// stamps it with the next time and sequence number.
func (s *Simulation) acquire(t float64, action func()) *Event {
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.poolHits++
	} else {
		s.poolMisses++
		ev = &Event{sim: s}
	}
	ev.Time = t
	ev.Action = action
	ev.seq = s.seq
	s.seq++
	return ev
}

// PoolStats returns the event-record freelist's reuse counters: hits are
// Schedule calls served from recycled records, misses are fresh allocations.
func (s *Simulation) PoolStats() (hits, misses uint64) {
	return s.poolHits, s.poolMisses
}

// release recycles an event record. Bumping the generation expires every
// Handle pointing at the record; dropping the Action lets the closure (and
// whatever it captures) go as soon as the model does.
func (s *Simulation) release(ev *Event) {
	ev.gen++
	ev.Action = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// noteCancel counts a fresh cancellation and purges once the uncollected
// cancelled records exceed both purgeFloor and half of the pending records.
func (s *Simulation) noteCancel() {
	s.canceled++
	if s.canceled > purgeFloor && 2*s.canceled > s.Pending() {
		s.list.purge()
		for _, l := range s.lanes {
			l.purge()
		}
		s.canceled = 0
	}
}

// Schedule registers action to run at absolute simulation time t and returns
// a handle that can be used to cancel it.
func (s *Simulation) Schedule(t float64, action func()) (Handle, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) || t < s.now {
		return Handle{}, fmt.Errorf("%w: t = %v (now %v)", ErrInvalidTime, t, s.now)
	}
	if action == nil {
		return Handle{}, fmt.Errorf("%w: nil action", ErrInvalidTime)
	}
	ev := s.acquire(t, action)
	s.list.push(ev)
	return Handle{ev: ev, gen: ev.gen}, nil
}

// ScheduleAfter registers action to run delay seconds after the current
// simulation time.
func (s *Simulation) ScheduleAfter(delay float64, action func()) (Handle, error) {
	return s.Schedule(s.now+delay, action)
}

// Step executes the next pending event. It returns false when the calendar is
// empty.
func (s *Simulation) Step() bool {
	ev, from := s.peek()
	if ev == nil {
		return false
	}
	s.remove(from)
	s.run(ev)
	return true
}

// RunUntil executes events until the simulation clock reaches endTime or the
// calendar becomes empty. Events scheduled exactly at endTime are executed.
// It returns the number of events executed.
func (s *Simulation) RunUntil(endTime float64) uint64 {
	var executed uint64
	for {
		ev, from := s.peek()
		if ev == nil || ev.Time > endTime {
			break
		}
		s.remove(from)
		s.run(ev)
		executed++
	}
	if s.now < endTime {
		s.now = endTime
	}
	return executed
}

// Run executes events until the calendar is empty and returns the number of
// events executed.
func (s *Simulation) Run() uint64 {
	var executed uint64
	for s.Step() {
		executed++
	}
	return executed
}

// peek returns the earliest live event and the lane holding it (nil for the
// event list), collecting the cancelled records it meets at the front, or
// nil when nothing is pending. The earliest of the list's top and the lane
// heads under eventBefore is the earliest pending event, because every lane
// is sorted by (Time, seq).
func (s *Simulation) peek() (*Event, *Lane) {
	for {
		ev := s.list.peek()
		var from *Lane
		for _, l := range s.lanes {
			if l.n > 0 {
				if h := l.ring[l.head]; ev == nil || eventBefore(h, ev) {
					ev, from = h, l
				}
			}
		}
		if ev == nil || !ev.canceled {
			return ev, from
		}
		s.remove(from)
		s.canceled--
		s.release(ev)
	}
}

// remove drops the front record of the lane from, or of the event list when
// from is nil.
func (s *Simulation) remove(from *Lane) {
	if from != nil {
		from.pop()
	} else {
		s.list.pop()
	}
}

// run advances the clock to ev, just removed from the front, and runs its
// action.
func (s *Simulation) run(ev *Event) {
	s.now = ev.Time
	s.events++
	action := ev.Action
	// Release before firing: the handle of a firing event expires the moment
	// it leaves the calendar, so a Cancel from within its own action (or any
	// later stale Cancel) cannot touch the recycled record.
	s.release(ev)
	action()
}
