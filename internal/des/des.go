// Package des is a discrete-event simulation kernel: an event calendar with a
// simulation clock, deterministic tie-breaking, and reproducible random
// variate streams. It substitutes for the CSIM library used by the paper's
// authors to implement the detailed network-level GPRS simulator.
//
// The kernel is event-oriented rather than process-oriented: model code
// schedules callbacks at future simulation times. Determinism is guaranteed
// for a fixed seed because ties in event time are broken by scheduling order:
// every event is keyed by (time, sequence number), sequence numbers are
// unique within a Simulation, and events fire in ascending key order.
//
// # Event records and handles
//
// An event that can be cancelled gets a record (Event): Schedule files one
// in the event list and returns a value-type Handle to it. Records are
// recycled through a per-Simulation freelist once their event fires or their
// cancellation is collected, so the steady-state event path is
// allocation-free. A Handle carries the generation number of the record's
// life it refers to: once the event fires, is cancelled or is re-armed, the
// record's generation moves on, and Cancel on the old Handle is a no-op
// instead of cancelling a stranger.
//
// # Event list
//
// Two event-list implementations sit behind one scheduler interface: a binary
// heap (the reference, and the default) and a Brown calendar queue
// (NewSimulationQueue(CalendarQueue)). Each slot of either list holds the key
// its record is filed under beside the record, so sifts, bucket scans and
// next-event selection compare plain values and never dereference a record.
// Both pop in (time, seq) order, so the fired order, and therefore every
// simulation result, is bit-identical between the two. The heap is the one
// the simulator uses: it is never slower than the calendar at the pending
// sizes measured, up to 200k events.
//
// # Re-arming in place
//
// RescheduleAfter is Cancel followed by ScheduleAfter, without the cancelled
// record. When the event is pending and its new time is no earlier than the
// key its record is filed under, the record keeps its slot and only its true
// key (Time and a fresh sequence number) moves. A slot's filing key is thus a
// lower bound of its record's true key. When a slot whose two keys differ
// reaches the front, its record is filed again at its true key, which is not
// counted as an event; since every other slot's key is a lower bound of its
// own event, the front slot whose keys agree is the earliest event. A TCP
// retransmission timer, re-armed on nearly every ACK, therefore costs one
// re-filing per timeout period instead of a cancel and a push per ACK.
//
// # Lanes
//
// Beside the event list, a Simulation keeps one FIFO lane per fixed delay
// (Simulation.Lane): Lane.Schedule appends (time, seq, action) at
// now + delay in O(1), without a sift and without a record. A FIFO needs no
// ordering work because it is already sorted by (time, seq): the clock never
// goes back, float64 addition of a fixed delay is monotone in the clock, and
// sequence numbers only grow. Lane events cannot be cancelled. The
// next-event routine shared by Step and RunUntil fires the earliest of the
// event list's front and the lane heads, so moving an event onto a lane
// changes neither the fired order nor any result.
//
// # Batch collection of cancelled events
//
// Cancel marks a record; it stays in the event list until it is collected.
// The Simulation counts the cancelled records the list still holds; once
// they are more than half of the list and more than a floor of 64, one O(n)
// pass removes and recycles them all (a heapify for the heap, an in-place
// filter of each calendar bucket). Until then a cancelled record is
// collected when it reaches the front. Pending therefore stays at most twice
// the live count plus the floor under cancel-and-schedule churn, and dead
// records do not cost a sift each.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrInvalidTime is returned when an event is scheduled in the past or at a
// non-finite time.
var ErrInvalidTime = errors.New("des: invalid event time")

// Event is the record of a cancellable scheduled callback. Model code never
// holds an Event directly — Schedule returns a Handle — because records are
// recycled through the simulation's freelist once they fire or their
// cancellation is collected.
type Event struct {
	// Time is the simulation time at which the event fires. With seq it is
	// the event's true key, which RescheduleAfter may move past the key the
	// record is filed under.
	Time float64
	// Action is invoked when the event fires.
	Action func()

	seq uint64
	// fileT is the time of the key the record is filed under in the event
	// list, at most Time.
	fileT float64
	// gen counts the record's lives in steps of two; its low bit marks the
	// current life's event as cancelled.
	gen uint64
	sim *Simulation // owner, whose count of uncollected cancellations Cancel bumps
}

// Handle is a cancellable reference to a scheduled event, from
// Simulation.Schedule or Simulation.RescheduleAfter. The zero Handle is
// valid and refers to no event (Cancel is a no-op). A Handle expires when its
// event fires, is re-armed, or has its cancellation collected — one at a time
// when the record reaches the front, or in a batch purge — at which point the
// generation number the Handle carries stops matching the record's, so
// Cancel and Canceled on an expired Handle are safe no-ops.
type Handle struct {
	ev  *Event
	gen uint64 // even: the record's generation while the event is pending
}

// Cancel prevents the event from firing. Cancelling the zero Handle, an
// already fired, or an already cancelled event is a no-op.
func (h Handle) Cancel() {
	if ev := h.ev; ev != nil && ev.gen == h.gen {
		ev.gen |= 1
		ev.sim.noteCancel()
	}
}

// Canceled reports whether the event has been cancelled and its record not
// yet collected. It reports false for the zero Handle and for expired
// Handles (the event fired, was re-armed, or its cancellation was collected).
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen|1
}

// Pending reports whether the event is still scheduled (not yet fired,
// re-armed, cancelled or collected).
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen
}

// Time returns the absolute fire time of a pending or cancelled event, or
// NaN for the zero Handle and for expired Handles.
func (h Handle) Time() float64 {
	if h.ev == nil || h.ev.gen&^1 != h.gen {
		return math.NaN()
	}
	return h.ev.Time
}

// key is an event's place in the scheduling order shared by the event lists
// and the lanes: earlier time first, scheduling order (seq) breaking ties.
type key struct {
	t   float64
	seq uint64
}

// before reports whether a fires before b.
func (a key) before(b key) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// earlier is before as 1 or 0, computed without a branch, for the heap's
// choice between two children, whose outcome is a coin flip a branch
// predictor cannot learn. It subtracts the keys as 128-bit integers, time
// bits high and seq low, and returns the borrow. Event times are never
// negative, and the bits of a non-negative float64 order as its value does
// once the sign of -0 is cleared.
func (a key) earlier(b key) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.t)&^sign, math.Float64bits(b.t)&^sign, borrow)
	return borrow
}

// entry is one slot of an event list: the key its record is filed under,
// beside the record, so ordering never dereferences a record.
type entry struct {
	key
	ev *Event
}

// eventList is the scheduler interface both event-list implementations
// (binary heap and calendar queue) satisfy. Implementations order entries by
// (t, seq) ascending; seq is unique per Simulation, so the order is a
// strict total order and pop sequences are implementation-independent.
type eventList interface {
	push(entry)
	// front returns the earliest entry; ok is false when the list is empty.
	front() (e entry, ok bool)
	// pop removes the earliest entry; the list must not be empty.
	pop()
	// refile replaces the earliest entry by e, which files the same record
	// at a later key; the list must not be empty.
	refile(e entry)
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

// binHeap is a hand-rolled binary heap over (t, seq). It avoids the
// interface boxing and indirect calls of container/heap on the hottest loop
// of the simulator.
type binHeap struct {
	a []entry
}

func (h *binHeap) size() int { return len(h.a) }

func (h *binHeap) front() (entry, bool) {
	if len(h.a) == 0 {
		return entry{}, false
	}
	return h.a[0], true
}

func (h *binHeap) push(e entry) {
	h.a = append(h.a, e)
	h.siftUp(len(h.a) - 1)
}

func (h *binHeap) pop() {
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = entry{}
	h.a = h.a[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

func (h *binHeap) refile(e entry) {
	h.a[0] = e
	h.siftDown(0)
}

// purge releases every cancelled record and rebuilds the heap over the
// survivors in one O(n) pass (Floyd's heapify).
func (h *binHeap) purge() {
	kept := h.a[:0]
	for _, e := range h.a {
		if e.ev.gen&1 != 0 {
			e.ev.sim.release(e.ev)
			continue
		}
		kept = append(kept, e)
	}
	clear(h.a[len(kept):])
	h.a = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *binHeap) siftUp(i int) {
	e := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h.a[parent].key) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

func (h *binHeap) siftDown(i int) {
	n := len(h.a)
	e := h.a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n {
			child += int(h.a[r].earlier(h.a[child].key))
		}
		if !h.a[child].before(e.key) {
			break
		}
		h.a[i] = h.a[child]
		i = child
	}
	h.a[i] = e
}

// purgeFloor is the number of uncollected cancelled records below which a
// Simulation never purges, however small its event list: a purge is an O(n)
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

	// canceled counts cancelled records still held by the event list: they
	// are collected one by one when they reach the front, or all at once by
	// purge.
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

// Pending returns the number of events held by the event list and the
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

// PoolStats returns the event-record freelist's reuse counters: hits are
// Schedule calls served from recycled records, misses are fresh allocations.
func (s *Simulation) PoolStats() (hits, misses uint64) {
	return s.poolHits, s.poolMisses
}

// release recycles an event record. Advancing the generation expires every
// Handle pointing at the record; dropping the Action lets the closure (and
// whatever it captures) go as soon as the model does.
func (s *Simulation) release(ev *Event) {
	ev.gen = ev.gen&^1 + 2
	ev.Action = nil
	s.free = append(s.free, ev)
}

// noteCancel counts a fresh cancellation and purges once the uncollected
// cancelled records exceed both purgeFloor and half of the event list.
func (s *Simulation) noteCancel() {
	s.canceled++
	if s.canceled > purgeFloor && 2*s.canceled > s.list.size() {
		s.list.purge()
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
	ev.Time, ev.fileT, ev.seq, ev.Action = t, t, s.seq, action
	s.seq++
	s.list.push(entry{key{t, ev.seq}, ev})
	return Handle{ev: ev, gen: ev.gen}, nil
}

// ScheduleAfter registers action to run delay seconds after the current
// simulation time.
func (s *Simulation) ScheduleAfter(delay float64, action func()) (Handle, error) {
	return s.Schedule(s.now+delay, action)
}

// RescheduleAfter re-arms the event of h to run action delay seconds after
// the current simulation time and returns the new handle; h expires. It is
// equivalent to h.Cancel() followed by ScheduleAfter(delay, action), in the
// event order it produces and in the one sequence number it takes. When h is
// pending and the new time is no earlier than the key its record is filed
// under, the record is re-armed in place: no cancelled record is left behind
// and nothing is pushed (see the package comment).
func (s *Simulation) RescheduleAfter(h Handle, delay float64, action func()) (Handle, error) {
	t := s.now + delay
	if ev := h.ev; ev != nil && ev.gen == h.gen && t >= ev.fileT && !math.IsInf(t, 1) && action != nil {
		ev.Time, ev.seq, ev.Action = t, s.seq, action
		s.seq++
		ev.gen += 2
		return Handle{ev: ev, gen: ev.gen}, nil
	}
	h.Cancel()
	return s.ScheduleAfter(delay, action)
}

// Step executes the next pending event. It returns false when the calendar is
// empty.
func (s *Simulation) Step() bool {
	return s.fireNext(math.Inf(1))
}

// RunUntil executes events until the simulation clock reaches endTime or the
// calendar becomes empty. Events scheduled exactly at endTime are executed.
// It returns the number of events executed.
func (s *Simulation) RunUntil(endTime float64) uint64 {
	var executed uint64
	for s.fireNext(endTime) {
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
	for s.fireNext(math.Inf(1)) {
		executed++
	}
	return executed
}

// fireNext is the one next-event routine: it fires the earliest pending event
// if its time is at most end, and reports whether it fired one. The earliest
// of the event list's front and the lane heads in key order is the earliest
// filed key, because every lane is sorted by (time, seq). A list slot there
// whose record was cancelled is collected, and one whose record was re-armed
// is filed again at its true key; either way the search starts over.
func (s *Simulation) fireNext(end float64) bool {
	for {
		e, ok := s.list.front()
		var lane *Lane
		for _, l := range s.lanes {
			if l.n == 0 {
				continue
			}
			if h := l.ring[l.head].key; !ok || h.before(e.key) {
				e, ok, lane = entry{key: h}, true, l
			}
		}
		if !ok || e.t > end {
			return false
		}
		var action func()
		if lane != nil {
			action = lane.pop()
		} else {
			ev := e.ev
			switch {
			case ev.gen&1 != 0:
				s.list.pop()
				s.canceled--
				s.release(ev)
				continue
			case ev.seq != e.seq:
				ev.fileT = ev.Time
				s.list.refile(entry{key{ev.Time, ev.seq}, ev})
				continue
			}
			s.list.pop()
			action = ev.Action
			// Release before firing: the handle of a firing event expires
			// the moment it leaves the calendar, so a Cancel from within its
			// own action (or any later stale Cancel) cannot touch the
			// recycled record.
			s.release(ev)
		}
		s.now = e.t
		s.events++
		action()
		return true
	}
}
