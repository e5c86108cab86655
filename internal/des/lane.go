package des

import (
	"fmt"
	"math"
)

// Lane is a Simulation's FIFO of events scheduled at one fixed delay after
// the clock. Its events are in (Time, seq) order by construction (see the
// package comment), so scheduling onto a lane is an O(1) append and the
// Simulation pops its head only when it is the earliest pending event. Lane
// records come from the Simulation's freelist and cancel like any other
// event.
type Lane struct {
	sim   *Simulation
	delay float64

	// ring is a circular buffer of power-of-two length holding n events from
	// index head on; it only grows, so steady state stays off the allocator.
	ring    []*Event
	head, n int
}

// Lane returns the simulation's lane for the given delay, creating it on
// first use: every call with the same delay returns the same lane. A
// negative or non-finite delay is an error wrapping ErrInvalidTime.
func (s *Simulation) Lane(delay float64) (*Lane, error) {
	if math.IsNaN(delay) || math.IsInf(delay, 0) || delay < 0 {
		return nil, fmt.Errorf("%w: lane delay %v", ErrInvalidTime, delay)
	}
	for _, l := range s.lanes {
		if l.delay == delay {
			return l, nil
		}
	}
	l := &Lane{sim: s, delay: delay}
	s.lanes = append(s.lanes, l)
	return l, nil
}

// Schedule registers action to run the lane's delay after the current
// simulation time and returns a handle that can be used to cancel it. It is
// equivalent to ScheduleAfter with the lane's delay, in event order too.
func (l *Lane) Schedule(action func()) (Handle, error) {
	s := l.sim
	t := s.now + l.delay
	if math.IsInf(t, 0) {
		return Handle{}, fmt.Errorf("%w: t = %v (now %v)", ErrInvalidTime, t, s.now)
	}
	if action == nil {
		return Handle{}, fmt.Errorf("%w: nil action", ErrInvalidTime)
	}
	ev := s.acquire(t, action)
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
	return Handle{ev: ev, gen: ev.gen}, nil
}

// grow doubles the ring, unrolling its events to the front.
func (l *Lane) grow() {
	next := make([]*Event, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		next[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = next, 0
}

// pop drops the head event; the lane must not be empty.
func (l *Lane) pop() {
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// purge releases every cancelled record and closes the gaps in place,
// keeping the survivors in order.
func (l *Lane) purge() {
	mask := len(l.ring) - 1
	kept := 0
	for i := 0; i < l.n; i++ {
		ev := l.ring[(l.head+i)&mask]
		if ev.canceled {
			l.sim.release(ev)
			continue
		}
		l.ring[(l.head+kept)&mask] = ev
		kept++
	}
	for i := kept; i < l.n; i++ {
		l.ring[(l.head+i)&mask] = nil
	}
	l.n = kept
}
