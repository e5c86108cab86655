// Package tcp implements the sender-side TCP Reno congestion-control state
// machine used by the detailed GPRS simulator: slow start, congestion
// avoidance, fast retransmit after three duplicate acknowledgements, and
// retransmission timeouts with exponential backoff and Jacobson/Karels RTT
// estimation. The paper's simulator includes exactly these mechanisms to
// model how TCP sources react to BSC buffer overflow (Section 5.2).
//
// The model is expressed in packets (segments), matching the paper's
// network-layer abstraction of 480-byte packets.
package tcp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidConfig is returned for out-of-range sender parameters.
var ErrInvalidConfig = errors.New("tcp: invalid configuration")

// Config parameterizes a Sender.
type Config struct {
	// InitialWindow is the initial congestion window in segments (default 1).
	InitialWindow float64
	// InitialSSThresh is the initial slow-start threshold in segments
	// (default 64).
	InitialSSThresh float64
	// MaxWindow caps the congestion window (receiver window), in segments
	// (default 64).
	MaxWindow float64
	// MinRTOSec is the lower bound of the retransmission timeout (default 1s,
	// as in common TCP implementations).
	MinRTOSec float64
	// MaxRTOSec is the upper bound of the retransmission timeout
	// (default 64 s).
	MaxRTOSec float64
	// InitialRTOSec is the RTO before the first RTT measurement (default 3s).
	InitialRTOSec float64
	// DupAckThreshold is the number of duplicate ACKs that triggers fast
	// retransmit (default 3).
	DupAckThreshold int
}

func (c Config) withDefaults() Config {
	if c.InitialWindow <= 0 {
		c.InitialWindow = 1
	}
	if c.InitialSSThresh <= 0 {
		c.InitialSSThresh = 64
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 64
	}
	if c.MinRTOSec <= 0 {
		c.MinRTOSec = 1
	}
	if c.MaxRTOSec <= 0 {
		c.MaxRTOSec = 64
	}
	if c.InitialRTOSec <= 0 {
		c.InitialRTOSec = 3
	}
	if c.DupAckThreshold <= 0 {
		c.DupAckThreshold = 3
	}
	return c
}

// maxWindowLimit is the largest MaxWindow a Config may set, in segments.
const maxWindowLimit = 1 << 16

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	d := c.withDefaults()
	if !(d.MaxWindow <= maxWindowLimit) {
		return fmt.Errorf("%w: max window %v not at most %d segments", ErrInvalidConfig, d.MaxWindow, maxWindowLimit)
	}
	if d.MaxWindow < d.InitialWindow {
		return fmt.Errorf("%w: max window %v below initial window %v", ErrInvalidConfig, d.MaxWindow, d.InitialWindow)
	}
	if d.MaxRTOSec < d.MinRTOSec {
		return fmt.Errorf("%w: max RTO %v below min RTO %v", ErrInvalidConfig, d.MaxRTOSec, d.MinRTOSec)
	}
	return nil
}

// Sender is the congestion-control state of one TCP connection (one packet
// call / document download in the 3GPP traffic model).
type Sender struct {
	cfg Config

	cwnd     float64
	ssthresh float64

	// Sequence-number state (in whole segments). nextSeq is the next new
	// segment to send; highestAcked is the highest cumulative ACK received.
	nextSeq      int
	highestAcked int
	inFlight     int

	dupAcks        int
	inFastRecovery bool
	recoverSeq     int

	// RTT estimation (Jacobson/Karels).
	srtt       float64
	rttvar     float64
	rto        float64
	hasRTTMeas bool
	backoffs   int

	// Counters.
	retransmits  int
	timeouts     int
	fastRecovers int
}

// NewSender returns a sender in slow start with the configured initial
// window.
func NewSender(cfg Config) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	return &Sender{
		cfg:      c,
		cwnd:     c.InitialWindow,
		ssthresh: c.InitialSSThresh,
		rto:      c.InitialRTOSec,
	}, nil
}

// Reset returns the sender to the initial slow-start state NewSender would
// produce for its configuration, reusing the record. The detailed simulator
// pools connection records per cell, so a recycled sender must start its next
// transfer from exactly the state a freshly constructed one would.
func (s *Sender) Reset() {
	c := s.cfg
	*s = Sender{cfg: c, cwnd: c.InitialWindow, ssthresh: c.InitialSSThresh, rto: c.InitialRTOSec}
}

// Window returns the current congestion window in segments (at least 1).
// Plain comparisons give math.Max(1, math.Min(cwnd, MaxWindow)) bit for bit,
// as both are finite and positive, and unlike those calls they inline.
func (s *Sender) Window() float64 {
	w := s.cwnd
	if s.cfg.MaxWindow < w {
		w = s.cfg.MaxWindow
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MaxWindow returns the cap on the congestion window, in segments.
func (s *Sender) MaxWindow() float64 { return s.cfg.MaxWindow }

// InFlight returns the number of unacknowledged segments outstanding.
func (s *Sender) InFlight() int { return s.inFlight }

// RTO returns the current retransmission timeout in seconds.
func (s *Sender) RTO() float64 { return s.rto }

// Timeouts returns the number of retransmission timeouts taken.
func (s *Sender) Timeouts() int { return s.timeouts }

// FastRecoveries returns the number of fast-retransmit episodes.
func (s *Sender) FastRecoveries() int { return s.fastRecovers }

// CanSend reports whether the window permits transmitting a new segment.
func (s *Sender) CanSend() bool {
	return float64(s.inFlight) < s.Window()
}

// NextSequence returns the sequence number the next new segment will carry.
func (s *Sender) NextSequence() int { return s.nextSeq }

// OnSend records the transmission of a new segment and returns its sequence
// number.
func (s *Sender) OnSend() int {
	seq := s.nextSeq
	s.nextSeq++
	s.inFlight++
	return seq
}

// OnRetransmit records the retransmission of the oldest unacknowledged
// segment and returns its sequence number.
func (s *Sender) OnRetransmit() int {
	s.retransmits++
	return s.highestAcked
}

// AckResult describes the sender's reaction to an acknowledgement.
type AckResult struct {
	// NewlyAcked is the number of segments cumulatively acknowledged by this
	// ACK.
	NewlyAcked int
	// FastRetransmit is true when the third duplicate ACK was received and
	// the oldest outstanding segment should be retransmitted immediately.
	FastRetransmit bool
	// RecoveryComplete is true when this ACK ended a fast-recovery episode.
	RecoveryComplete bool
}

// OnAck processes a cumulative acknowledgement for all segments below ackSeq.
// rttSample is the measured round-trip time of the newest acknowledged
// segment in seconds, or zero if the sample is invalid (e.g. for
// retransmitted segments, per Karn's algorithm).
func (s *Sender) OnAck(ackSeq int, rttSample float64) AckResult {
	var res AckResult
	if ackSeq <= s.highestAcked {
		// Duplicate ACK.
		s.dupAcks++
		if s.inFastRecovery {
			// Inflate the window by one segment per additional dup ACK.
			s.cwnd++
			return res
		}
		if s.dupAcks == s.cfg.DupAckThreshold && s.inFlight > 0 {
			// Fast retransmit / fast recovery (Reno).
			s.ssthresh = math.Max(2, s.cwnd/2)
			s.cwnd = s.ssthresh + float64(s.cfg.DupAckThreshold)
			s.inFastRecovery = true
			s.recoverSeq = s.nextSeq
			s.fastRecovers++
			res.FastRetransmit = true
		}
		return res
	}

	// New cumulative ACK.
	res.NewlyAcked = ackSeq - s.highestAcked
	s.highestAcked = ackSeq
	s.inFlight -= res.NewlyAcked
	if s.inFlight < 0 {
		s.inFlight = 0
	}
	s.dupAcks = 0
	s.backoffs = 0

	if rttSample > 0 {
		s.updateRTT(rttSample)
	}

	if s.inFastRecovery {
		if ackSeq >= s.recoverSeq {
			// Full recovery: deflate to ssthresh and resume congestion
			// avoidance.
			s.inFastRecovery = false
			s.cwnd = s.ssthresh
			res.RecoveryComplete = true
		} else {
			// Partial ACK (NewReno-style): stay in recovery.
			res.FastRetransmit = true
		}
		return res
	}

	// Window growth.
	for i := 0; i < res.NewlyAcked; i++ {
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start: one segment per ACK
		} else {
			s.cwnd += 1 / s.cwnd // congestion avoidance: ~one segment per RTT
		}
	}
	if s.cwnd > s.cfg.MaxWindow {
		s.cwnd = s.cfg.MaxWindow
	}
	return res
}

// OnTimeout reacts to a retransmission timeout: the slow-start threshold is
// halved, the window collapses to one segment, and the RTO is doubled
// (exponential backoff). The caller should retransmit the oldest
// unacknowledged segment.
func (s *Sender) OnTimeout() {
	s.timeouts++
	s.ssthresh = math.Max(2, s.cwnd/2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inFastRecovery = false
	s.backoffs++
	s.rto = math.Min(s.rto*2, s.cfg.MaxRTOSec)
	// Outstanding segments are considered lost; the simulator retransmits
	// go-back-N style from the last cumulative ACK.
	s.inFlight = 0
	s.nextSeq = s.highestAcked
}

// updateRTT applies the Jacobson/Karels estimator.
func (s *Sender) updateRTT(sample float64) {
	if !s.hasRTTMeas {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTTMeas = true
	} else {
		const (
			alpha = 0.125
			beta  = 0.25
		)
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-sample)
		s.srtt = (1-alpha)*s.srtt + alpha*sample
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTOSec {
		s.rto = s.cfg.MinRTOSec
	}
	if s.rto > s.cfg.MaxRTOSec {
		s.rto = s.cfg.MaxRTOSec
	}
}
