package sim

import (
	"testing"

	"repro/internal/probe"
	"repro/internal/tcp"
	"repro/internal/traffic"
)

// karnTransfer opens a one-segment TCP transfer on an otherwise idle cell at
// time start and runs the cell's calendar until the first acknowledgement
// completes it. before, if non-nil, runs on the cell before the transfer
// opens. It returns the cell, the (completed) connection and the time of
// that acknowledgement.
func karnTransfer(t *testing.T, start float64, before func(c *cell)) (*cell, *connection, float64) {
	t.Helper()
	c := poolTestCell(t)
	c.eng.RunUntil(start)
	if before != nil {
		before(c)
	}
	conn, err := newConnection(c.getSession(), 1)
	if err != nil {
		t.Fatal(err)
	}
	conn.pump()
	for !conn.done && c.eng.Step() {
	}
	if !conn.done {
		t.Fatal("the transfer never completed")
	}
	return c, conn, c.now()
}

// initialRTO is the retransmission timeout of a fresh sender of c's TCP
// configuration, the time at which an unacknowledged first segment is resent.
func initialRTO(t *testing.T, c *cell) float64 {
	t.Helper()
	s, err := tcp.NewSender(c.sim.config.TCP)
	if err != nil {
		t.Fatal(err)
	}
	return s.RTO()
}

// referenceSender replays the sender operations of a one-segment transfer on
// a fresh tcp.Sender: one send, timeouts each followed by a go-back-N resend,
// and the completing acknowledgement carrying the given RTT sample.
func referenceSender(t *testing.T, c *cell, timeouts int, sample float64) tcp.Sender {
	t.Helper()
	ref, err := tcp.NewSender(c.sim.config.TCP)
	if err != nil {
		t.Fatal(err)
	}
	ref.OnSend()
	for range timeouts {
		ref.OnTimeout()
		ref.OnSend()
	}
	ref.OnAck(1, sample)
	return *ref
}

// TestKarnSampleFromCarriedSendTime checks that the send time a segment
// carries through the BSC buffer and back on its acknowledgement gives the
// sender exactly the RTT samples Karn's rule allows. The sender's state after
// the transfer must equal a fresh sender fed the same operations with the
// expected sample, so a wrong sample, or a sample where none is allowed,
// shows in its RTT estimate and RTO.
func TestKarnSampleFromCarriedSendTime(t *testing.T) {
	t.Run("sent once", func(t *testing.T) {
		const sentAt = 1.0
		c, conn, now := karnTransfer(t, sentAt, nil)
		if want := referenceSender(t, c, 0, now-sentAt); *conn.sender != want {
			t.Errorf("sender %+v, want %+v after a sample of now - send time = %g", *conn.sender, want, now-sentAt)
		}
	})

	// The first copy is dropped at a BSC buffer of size zero, restored to its
	// size one second later; the retransmission timeout resends the segment,
	// and the resent copy's acknowledgement completes the transfer without a
	// sample.
	t.Run("retransmitted", func(t *testing.T) {
		c, conn, now := karnTransfer(t, 0, func(c *cell) {
			size := c.sim.config.BufferSize
			c.sim.config.BufferSize = 0
			c.schedule(1, func() { c.sim.config.BufferSize = size })
		})
		if c.n[probe.PacketsLost] != 1 {
			t.Fatalf("%d packets dropped, want the first copy", c.n[probe.PacketsLost])
		}
		if now < initialRTO(t, c) {
			t.Fatalf("transfer completed at %g, before the retransmission timeout", now)
		}
		if want := referenceSender(t, c, 1, 0); *conn.sender != want {
			t.Errorf("sender %+v, want %+v after an ACK without a sample", *conn.sender, want)
		}
	})

	// Voice calls leave one PDCH and ten packets queue ahead of the segment,
	// so the timeout resends it while the first copy still waits at the BSC.
	// That old copy is delivered first; its acknowledgement completes the
	// transfer while the resent copy is still queued, without a sample.
	t.Run("old copy after go-back-N", func(t *testing.T) {
		c, conn, now := karnTransfer(t, 0, func(c *cell) {
			c.voiceCalls = c.sim.config.Channels.TotalChannels - 1
			for range 10 {
				c.enqueue(packet{})
			}
		})
		resent := false
		for i := 0; i < c.count; i++ {
			if p := c.at(i); p.conn == conn && p.sentAt > 0 {
				resent = true
			}
		}
		if !resent || now < initialRTO(t, c) {
			t.Fatalf("transfer completed at %g, not by the first copy after the resend", now)
		}
		if want := referenceSender(t, c, 1, 0); *conn.sender != want {
			t.Errorf("sender %+v, want %+v after an ACK without a sample", *conn.sender, want)
		}
	})
}

// TestFlagRingHoldsEveryLiveSegment runs TCP transfers through small BSC
// buffers, whose overflow drives timeouts, go-back-N resends and fast
// retransmits, at maximum windows down to four segments, so that the flag
// ring of four windows (16 segments at the smallest) wraps within most
// transfers of 25 segments on average. A read of flags that a segment a lap
// ahead has replaced panics (see connection.flag), so runs that end show
// that every segment whose flags are read is within the ring. A ring of one
// window fails here.
func TestFlagRingHoldsEveryLiveSegment(t *testing.T) {
	for _, window := range []float64{4, 6.5, 64} {
		for _, buffer := range []int{2, 6} {
			cfg := DefaultConfig(traffic.Model3, 1)
			cfg.GPRSFraction = 0.2
			cfg.BufferSize = buffer
			cfg.TCP.MaxWindow = window
			cfg.WarmupSec, cfg.MeasurementSec, cfg.Batches = 10, 3000, 2
			cfg.Seed = 5
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.TCPTimeouts == 0 || r.TCPFastRecovers == 0 {
				t.Errorf("window %v, buffer %d: %d timeouts and %d fast recoveries, want some of each",
					window, buffer, r.TCPTimeouts, r.TCPFastRecovers)
			}
			t.Logf("window %v, buffer %d: %d packets delivered, %d timeouts, %d fast recoveries",
				window, buffer, r.PacketsDelivered, r.TCPTimeouts, r.TCPFastRecovers)
		}
	}
}
