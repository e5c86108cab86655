package core

import (
	"math"
	"testing"
	"testing/quick"
)

// State returns the state tuple for a dense index, the inverse of Index.
// The tests decode states with it, for their per-state encoding of Table 1
// among others; the model walks its states in index order and decodes none.
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

func TestStateSpaceSize(t *testing.T) {
	// N_GSM = 19, K = 100, M = 50 gives the state-space size quoted in
	// Section 4.1: (M+1)(M+2)/2 * (N_GSM+1) * (K+1).
	sp := NewStateSpace(19, 100, 50)
	want := 51 * 52 / 2 * 20 * 101
	if sp.NumStates() != want {
		t.Errorf("NumStates = %d, want %d", sp.NumStates(), want)
	}
	if sp.GSMChannels() != 19 || sp.BufferSize() != 100 || sp.MaxSessions() != 50 {
		t.Error("accessors do not round-trip the constructor arguments")
	}
}

func TestStateSpaceRoundTripExhaustive(t *testing.T) {
	sp := NewStateSpace(3, 4, 5)
	seen := make(map[int]bool, sp.NumStates())
	count := 0
	for n := 0; n <= 3; n++ {
		for k := 0; k <= 4; k++ {
			for m := 0; m <= 5; m++ {
				for r := 0; r <= m; r++ {
					s := State{GSMCalls: n, Packets: k, Sessions: m, OffSessions: r}
					idx := sp.Index(s)
					if idx < 0 || idx >= sp.NumStates() {
						t.Fatalf("index %d out of range for %v", idx, s)
					}
					if seen[idx] {
						t.Fatalf("duplicate index %d for %v", idx, s)
					}
					seen[idx] = true
					back := sp.State(idx)
					if back != s {
						t.Fatalf("round trip %v -> %d -> %v", s, idx, back)
					}
					count++
				}
			}
		}
	}
	if count != sp.NumStates() {
		t.Errorf("enumerated %d states, space reports %d", count, sp.NumStates())
	}
}

func TestStateString(t *testing.T) {
	s := State{GSMCalls: 1, Packets: 2, Sessions: 3, OffSessions: 1}
	if s.String() != "(n=1, k=2, m=3, r=1)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestTriangularRow(t *testing.T) {
	// tri indices 0,1,2,3,4,5,... map to rows 0,1,1,2,2,2,...
	wantRows := []int{0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4}
	for tri, want := range wantRows {
		if got := triangularRow(tri); got != want {
			t.Errorf("triangularRow(%d) = %d, want %d", tri, got, want)
		}
	}
}

// Property: Index and State are inverse bijections for random spaces.
func TestStateSpaceRoundTripProperty(t *testing.T) {
	prop := func(nSeed, kSeed, mSeed uint8, pick uint16) bool {
		sp := NewStateSpace(int(nSeed%6)+1, int(kSeed%10)+1, int(mSeed%8)+1)
		idx := int(pick) % sp.NumStates()
		s := sp.State(idx)
		if s.GSMCalls < 0 || s.GSMCalls > sp.gsmChannels || s.Packets < 0 || s.Packets > sp.bufferSize ||
			s.OffSessions < 0 || s.OffSessions > s.Sessions || s.Sessions > sp.maxSessions {
			return false
		}
		return sp.Index(s) == idx
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestStateSpaceBlocksAreLines(t *testing.T) {
	// Every (n, m, r) block is one run of K+1 consecutive indices in k
	// order, starting at (K+1) times the block index n·tri + m(m+1)/2 + r.
	for _, dims := range [][3]int{{0, 0, 0}, {2, 1, 3}, {3, 4, 5}, {5, 7, 2}} {
		sp := NewStateSpace(dims[0], dims[1], dims[2])
		tri := (dims[2] + 1) * (dims[2] + 2) / 2
		for n := 0; n <= dims[0]; n++ {
			for m := 0; m <= dims[2]; m++ {
				for r := 0; r <= m; r++ {
					s := State{GSMCalls: n, Sessions: m, OffSessions: r}
					start := (n*tri + m*(m+1)/2 + r) * (dims[1] + 1)
					for k := 0; k <= dims[1]; k++ {
						s.Packets = k
						if got := sp.Index(s); got != start+k {
							t.Fatalf("%v in space %v: index %d, want %d", s, dims, got, start+k)
						}
					}
				}
			}
		}
	}
}
