package tcp

import (
	"errors"
	"math"
	"testing"
)

func newTestSender(t *testing.T) *Sender {
	t.Helper()
	s, err := NewSender(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inSlowStart reports whether the sender is in the slow-start phase.
func inSlowStart(s *Sender) bool { return s.cwnd < s.ssthresh && !s.inFastRecovery }

func TestInitialState(t *testing.T) {
	s := newTestSender(t)
	if s.Window() != 1 {
		t.Errorf("initial window = %v, want 1", s.Window())
	}
	if !inSlowStart(s) {
		t.Error("sender should start in slow start")
	}
	if s.InFlight() != 0 || s.inFastRecovery {
		t.Error("unexpected initial state")
	}
	if s.RTO() != 3 {
		t.Errorf("initial RTO = %v, want 3", s.RTO())
	}
	if !s.CanSend() {
		t.Error("initial window of 1 should allow one segment")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSender(Config{InitialWindow: 10, MaxWindow: 2}); !errors.Is(err, ErrInvalidConfig) {
		t.Error("max window below initial window should be rejected")
	}
	if _, err := NewSender(Config{MinRTOSec: 10, MaxRTOSec: 5}); !errors.Is(err, ErrInvalidConfig) {
		t.Error("max RTO below min RTO should be rejected")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	s := newTestSender(t)
	// Simulate several loss-free RTTs: send the full window, then ACK it all.
	window := 1
	for rtt := 0; rtt < 4; rtt++ {
		sent := 0
		for s.CanSend() {
			s.OnSend()
			sent++
		}
		if sent != window {
			t.Fatalf("rtt %d: sent %d segments, want %d", rtt, sent, window)
		}
		res := s.OnAck(s.NextSequence(), 0.5)
		if res.NewlyAcked != sent {
			t.Fatalf("acked %d, want %d", res.NewlyAcked, sent)
		}
		window *= 2
	}
	if got := s.Window(); got != 16 {
		t.Errorf("window after 4 loss-free RTTs = %v, want 16", got)
	}
	if !inSlowStart(s) {
		t.Error("still below ssthresh, should remain in slow start")
	}
}

func TestCongestionAvoidanceGrowsLinearly(t *testing.T) {
	s, err := NewSender(Config{InitialSSThresh: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Grow past the threshold.
	for rtt := 0; rtt < 6; rtt++ {
		sent := 0
		for s.CanSend() {
			s.OnSend()
			sent++
		}
		s.OnAck(s.NextSequence(), 0.5)
	}
	// In congestion avoidance the window grows by about one segment per RTT.
	w1 := s.Window()
	for s.CanSend() {
		s.OnSend()
	}
	s.OnAck(s.NextSequence(), 0.5)
	w2 := s.Window()
	if w2 <= w1 || w2 > w1+1.5 {
		t.Errorf("congestion avoidance growth per RTT = %v, want about 1", w2-w1)
	}
	if inSlowStart(s) {
		t.Error("should be in congestion avoidance")
	}
}

func TestWindowCap(t *testing.T) {
	s, err := NewSender(Config{MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	for rtt := 0; rtt < 10; rtt++ {
		for s.CanSend() {
			s.OnSend()
		}
		s.OnAck(s.NextSequence(), 0.2)
	}
	if s.Window() > 8 {
		t.Errorf("window = %v exceeds cap 8", s.Window())
	}
}

func TestFastRetransmitOnThreeDupAcks(t *testing.T) {
	s := newTestSender(t)
	// Build up a window of 8 and fill it.
	for rtt := 0; rtt < 3; rtt++ {
		for s.CanSend() {
			s.OnSend()
		}
		s.OnAck(s.NextSequence(), 0.5)
	}
	for s.CanSend() {
		s.OnSend()
	}
	before := s.Window()
	ackPoint := s.highestAcked

	// Three duplicate ACKs (segment ackPoint lost, later segments delivered).
	var triggered bool
	for i := 0; i < 3; i++ {
		res := s.OnAck(ackPoint, 0)
		if res.FastRetransmit {
			triggered = true
			if i != 2 {
				t.Errorf("fast retransmit on dup ACK %d, want the 3rd", i+1)
			}
		}
	}
	if !triggered {
		t.Fatal("three duplicate ACKs should trigger fast retransmit")
	}
	if !s.inFastRecovery {
		t.Error("sender should be in fast recovery")
	}
	if s.FastRecoveries() != 1 {
		t.Errorf("fast recoveries = %d, want 1", s.FastRecoveries())
	}
	if s.ssthresh >= before {
		t.Errorf("ssthresh %v should be halved from %v", s.ssthresh, before)
	}

	// A full cumulative ACK ends recovery and deflates the window to ssthresh.
	res := s.OnAck(s.NextSequence(), 0)
	if !res.RecoveryComplete {
		t.Error("full ACK should complete recovery")
	}
	if s.inFastRecovery {
		t.Error("recovery should have ended")
	}
	if math.Abs(s.Window()-s.ssthresh) > 1e-9 {
		t.Errorf("window after recovery = %v, want ssthresh %v", s.Window(), s.ssthresh)
	}
}

func TestDupAcksBelowThresholdDoNothing(t *testing.T) {
	s := newTestSender(t)
	for s.CanSend() {
		s.OnSend()
	}
	res := s.OnAck(0, 0)
	if res.FastRetransmit || res.NewlyAcked != 0 {
		t.Error("single dup ACK should not trigger anything")
	}
	if s.inFastRecovery {
		t.Error("not yet in recovery")
	}
}

func TestTimeoutCollapsesWindowAndBacksOff(t *testing.T) {
	s := newTestSender(t)
	for rtt := 0; rtt < 4; rtt++ {
		for s.CanSend() {
			s.OnSend()
		}
		s.OnAck(s.NextSequence(), 0.5)
	}
	before := s.Window()
	rtoBefore := s.RTO()
	s.OnTimeout()
	if s.Window() != 1 {
		t.Errorf("window after timeout = %v, want 1", s.Window())
	}
	if s.ssthresh < 2 || s.ssthresh > before {
		t.Errorf("ssthresh after timeout = %v", s.ssthresh)
	}
	if s.RTO() <= rtoBefore {
		t.Errorf("RTO should back off exponentially: %v -> %v", rtoBefore, s.RTO())
	}
	if s.Timeouts() != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts())
	}
	if s.InFlight() != 0 {
		t.Errorf("in flight after timeout = %d, want 0 (go-back-N)", s.InFlight())
	}
	if !inSlowStart(s) {
		t.Error("after a timeout the sender restarts in slow start")
	}
}

func TestRTOBoundedByMinAndMax(t *testing.T) {
	s, err := NewSender(Config{MinRTOSec: 1, MaxRTOSec: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny RTT samples: RTO must not fall below the minimum.
	s.OnSend()
	s.OnAck(1, 0.01)
	if s.RTO() < 1 {
		t.Errorf("RTO = %v below minimum", s.RTO())
	}
	// Repeated timeouts: RTO must not exceed the maximum.
	for i := 0; i < 10; i++ {
		s.OnTimeout()
	}
	if s.RTO() > 8 {
		t.Errorf("RTO = %v above maximum", s.RTO())
	}
}

func TestRTTEstimation(t *testing.T) {
	s := newTestSender(t)
	s.OnSend()
	s.OnAck(1, 2.0)
	if math.Abs(s.srtt-2.0) > 1e-9 {
		t.Errorf("first SRTT = %v, want the sample 2.0", s.srtt)
	}
	// Further samples move the estimate smoothly.
	s.OnSend()
	s.OnAck(2, 4.0)
	if s.srtt <= 2.0 || s.srtt >= 4.0 {
		t.Errorf("SRTT = %v, want between the samples", s.srtt)
	}
	// RTO = SRTT + 4*RTTVAR is at least the minimum of 1 s.
	if s.RTO() < 1 {
		t.Errorf("RTO = %v", s.RTO())
	}
}

func TestOnRetransmitCountsAndReturnsOldest(t *testing.T) {
	s := newTestSender(t)
	s.OnSend()
	seq := s.OnRetransmit()
	if seq != 0 {
		t.Errorf("retransmit sequence = %d, want 0", seq)
	}
	if s.retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", s.retransmits)
	}
}

func TestWindowInflationDuringRecovery(t *testing.T) {
	s := newTestSender(t)
	for rtt := 0; rtt < 4; rtt++ {
		for s.CanSend() {
			s.OnSend()
		}
		s.OnAck(s.NextSequence(), 0.5)
	}
	for s.CanSend() {
		s.OnSend()
	}
	ackPoint := s.highestAcked
	for i := 0; i < 3; i++ {
		s.OnAck(ackPoint, 0)
	}
	wAfterEntry := s.Window()
	// Additional dup ACKs inflate the window by one segment each.
	s.OnAck(ackPoint, 0)
	s.OnAck(ackPoint, 0)
	if s.Window() != wAfterEntry+2 {
		t.Errorf("window inflation: %v -> %v, want +2", wAfterEntry, s.Window())
	}
}
