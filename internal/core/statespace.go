package core

import (
	"fmt"
	"math"
)

// State is one state of the aggregated Markov model (Section 4.1).
type State struct {
	// GSMCalls is n, the number of active GSM voice calls (0..N_GSM).
	GSMCalls int
	// Packets is k, the number of data packets queued at the BSC (0..K).
	Packets int
	// Sessions is m, the number of active GPRS sessions (0..M).
	Sessions int
	// OffSessions is r, the number of GPRS sessions whose IPP source is in
	// the off state (0..m); the remaining m-r sessions are generating
	// packets.
	OffSessions int
}

// String renders the state as (n, k, m, r).
func (s State) String() string {
	return fmt.Sprintf("(n=%d, k=%d, m=%d, r=%d)", s.GSMCalls, s.Packets, s.Sessions, s.OffSessions)
}

// StateSpace maps between State tuples and dense integer indices. The layout
// iterates n (outermost), then the triangular (m, r) index t, then the
// buffer level k (innermost): Index = (n·tri + t)·(K+1) + k. Every (n, m, r)
// block is thus one run of K+1 consecutive states in k order, which the
// line Gauss–Seidel sweeps of package ctmc solve as one tridiagonal line.
type StateSpace struct {
	gsmChannels int // N_GSM
	bufferSize  int // K
	maxSessions int // M
	triSize     int // (M+1)(M+2)/2
	numStates   int
}

// NewStateSpace builds the state space for N_GSM channels usable by GSM, a
// BSC buffer of K packets and at most M concurrent GPRS sessions.
func NewStateSpace(gsmChannels, bufferSize, maxSessions int) StateSpace {
	tri := (maxSessions + 1) * (maxSessions + 2) / 2
	return StateSpace{
		gsmChannels: gsmChannels,
		bufferSize:  bufferSize,
		maxSessions: maxSessions,
		triSize:     tri,
		numStates:   (gsmChannels + 1) * (bufferSize + 1) * tri,
	}
}

// NumStates returns the total number of states.
func (sp StateSpace) NumStates() int { return sp.numStates }

// GSMChannels returns N_GSM.
func (sp StateSpace) GSMChannels() int { return sp.gsmChannels }

// BufferSize returns K.
func (sp StateSpace) BufferSize() int { return sp.bufferSize }

// MaxSessions returns M.
func (sp StateSpace) MaxSessions() int { return sp.maxSessions }

// Index returns the dense index of a state. The caller must pass a state
// inside the state space; out-of-range states yield an undefined index.
func (sp StateSpace) Index(s State) int {
	t := s.Sessions*(s.Sessions+1)/2 + s.OffSessions
	return (s.GSMCalls*sp.triSize+t)*(sp.bufferSize+1) + s.Packets
}

// State returns the state tuple for a dense index.
func (sp StateSpace) State(index int) State {
	k := index % (sp.bufferSize + 1)
	rest := index / (sp.bufferSize + 1)
	tri := rest % sp.triSize
	n := rest / sp.triSize
	// Invert the triangular index: find the largest m with m(m+1)/2 <= tri.
	m := triangularRow(tri)
	r := tri - m*(m+1)/2
	return State{GSMCalls: n, Packets: k, Sessions: m, OffSessions: r}
}

// triangularRow returns the largest m such that m(m+1)/2 <= tri.
func triangularRow(tri int) int {
	// Solve m^2 + m - 2 tri = 0 and correct for floating-point rounding.
	m := int((math.Sqrt(8*float64(tri)+1) - 1) / 2)
	for (m+1)*(m+2)/2 <= tri {
		m++
	}
	for m > 0 && m*(m+1)/2 > tri {
		m--
	}
	return m
}
