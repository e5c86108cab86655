package des

import (
	"fmt"
	"math"
)

// Lane is a Simulation's FIFO of events scheduled at one fixed delay after
// the clock. Its events are in (time, seq) order by construction (see the
// package comment), so scheduling onto a lane is an O(1) append and the
// Simulation fires its head only when it is the earliest pending event. Lane
// events take no record from the freelist and cannot be cancelled.
type Lane struct {
	sim   *Simulation
	delay float64

	// ring is a circular buffer of power-of-two length holding n events from
	// index head on; it only grows, so steady state stays off the allocator.
	ring    []laneEvent
	head, n int
}

// laneEvent is one lane slot: the event's key and its action.
type laneEvent struct {
	key
	action func()
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
// simulation time. It is equivalent to ScheduleAfter with the lane's delay,
// in event order too, except that the event cannot be cancelled.
func (l *Lane) Schedule(action func()) error {
	s := l.sim
	t := s.now + l.delay
	if math.IsInf(t, 0) {
		return fmt.Errorf("%w: t = %v (now %v)", ErrInvalidTime, t, s.now)
	}
	if action == nil {
		return fmt.Errorf("%w: nil action", ErrInvalidTime)
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEvent{key{t, s.seq}, action}
	s.seq++
	l.n++
	return nil
}

// grow doubles the ring, unrolling its events to the front.
func (l *Lane) grow() {
	next := make([]laneEvent, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		next[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = next, 0
}

// pop drops the head event and returns its action; the lane must not be
// empty.
func (l *Lane) pop() func() {
	h := &l.ring[l.head]
	action := h.action
	h.action = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return action
}
