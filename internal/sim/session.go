package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/des"
	"repro/internal/probe"
	"repro/internal/tcp"
)

// packet is one 480-byte network-layer data packet travelling through the BSC
// buffer of a cell. Packets are values in the cell's buffer ring (cell.buf),
// written on enqueue and overwritten after delivery, so they need no pool.
// connGen snapshots the owning connection record's generation at enqueue
// time: connection records are pooled, so a packet still draining after its
// transfer ended must not wake the record's next occupant (cell.deliver
// checks the generation). sentAt is the time the sender shipped this copy of
// segment seq; the ACK carries it back as the start of a Karn RTT sample.
type packet struct {
	conn       *connection
	connGen    uint64
	seq        int
	sentAt     float64
	enqueuedAt float64
	blocksLeft int
}

// voiceCall is one circuit-switched GSM call. It is anchored to its current
// cell; a handover serializes the call into a voiceState message and
// recreates it in the target cell after the handover latency. Records are
// recycled through the cell's freelist when the call departs or hands over;
// the prebound closures (departFn, handoverFn, setHandoverEv) are created once
// at first allocation and survive reuse.
type voiceCall struct {
	cell       *cell
	departAt   float64
	departEv   des.Handle
	handoverEv des.Handle

	departFn      func()
	handoverFn    func()
	setHandoverEv func(des.Handle)
}

// depart completes the voice call and recycles its record.
func (v *voiceCall) depart() {
	v.cell.removeVoice()
	v.handoverEv.Cancel()
	v.cell.putVoice(v)
}

// scheduleHandover arms the dwell-time timer of the call in its current cell,
// scaled by the cell's mobility profile (see cell.armDwell).
func (v *voiceCall) scheduleHandover() {
	c := v.cell
	c.armDwell(c.sim.config.GSMDwellTimeSec, v.handoverFn, v.setHandoverEv)
}

// handover moves the call towards a neighbouring cell: the call leaves this
// cell immediately and arrives — or is dropped, if the target has no free
// traffic channel — after the handover latency. The record is recycled; the
// serialized voiceState carries everything the target cell needs.
func (v *voiceCall) handover() {
	c := v.cell
	target := c.sim.config.Topology.HandoverTarget(c.id, c.streams.handover.Intn)
	if target < 0 {
		v.scheduleHandover()
		return
	}
	c.n[probe.HandoversOut]++
	c.n[probe.VoiceHandoversOut]++
	c.removeVoice()
	v.departEv.Cancel()
	departAt := v.departAt
	c.putVoice(v)
	c.sim.dispatch(c, target, handoverMsg{kind: hoVoice, voice: voiceState{departAt: departAt}, src: c.id})
}

// session is one GPRS packet-service session: an alternating sequence of
// packet calls (document downloads) and reading times, following the 3GPP
// traffic model of the paper. Like voiceCall it is anchored to its current
// cell; a handover serializes the session's phase into a sessionState message
// and resumes it in the target cell. Records are recycled through the cell's
// freelist when the session ends; the prebound closures are created once at
// first allocation and survive reuse.
type session struct {
	cell *cell

	active          bool
	packetCallsLeft int

	// Closed-loop (TCP) state.
	conn *connection

	// Open-loop (IPP) state.
	packetsLeftInCall int
	genEv             des.Handle

	handoverEv des.Handle

	startPacketCallFn func()
	generatePacketFn  func()
	handoverFn        func()
	setHandoverEv     func(des.Handle)
}

func (s *session) cfg() *Config { return &s.cell.sim.config }

// start begins the first packet call.
func (s *session) start() {
	s.active = true
	s.packetCallsLeft = s.cell.streams.traffic.Geometric(s.cfg().Session.NumPacketCalls)
	s.startPacketCall()
}

// startPacketCall begins the download of one document.
func (s *session) startPacketCall() {
	if !s.active {
		return
	}
	packets := s.cell.streams.traffic.Geometric(s.cfg().Session.PacketsPerCall)
	if s.cfg().EnableTCP {
		s.startTransfer(packets)
		return
	}
	s.packetsLeftInCall = packets
	s.scheduleNextGeneration()
}

// startTransfer opens the TCP connection carrying the given number of
// segments of the current packet call.
func (s *session) startTransfer(segments int) {
	conn, err := newConnection(s, segments)
	if err != nil {
		// The TCP configuration was validated up front; a failure here means
		// the session cannot transfer data, so terminate it.
		s.end()
		return
	}
	s.conn = conn
	conn.pump()
}

// scheduleNextGeneration schedules the next open-loop packet of the current
// packet call after an exponential inter-arrival time.
func (s *session) scheduleNextGeneration() {
	gap := s.cell.streams.traffic.Exponential(s.cfg().Session.PacketInterarrivalSec)
	s.genEv = s.cell.schedule(gap, s.generatePacketFn)
}

// generatePacket emits one open-loop packet into the BSC buffer of the
// session's current cell.
func (s *session) generatePacket() {
	if !s.active {
		return
	}
	s.cell.enqueue(packet{})
	s.packetsLeftInCall--
	if s.packetsLeftInCall > 0 {
		s.scheduleNextGeneration()
		return
	}
	s.packetCallComplete()
}

// packetCallComplete finishes the current packet call: either the session
// ends (no packet calls left) or a reading time starts before the next one.
func (s *session) packetCallComplete() {
	if !s.active {
		return
	}
	s.conn = nil
	s.packetCallsLeft--
	if s.packetCallsLeft <= 0 {
		s.end()
		return
	}
	reading := s.cell.streams.traffic.Exponential(s.cfg().Session.ReadingTimeSec)
	s.genEv = s.cell.schedule(reading, s.startPacketCallFn)
}

// end terminates the session, releases its slot in the current cell, and
// recycles the record. Callers must not touch the session afterwards.
func (s *session) end() {
	if !s.active {
		return
	}
	s.active = false
	s.cell.removeSession()
	s.handoverEv.Cancel()
	s.genEv.Cancel()
	if s.conn != nil {
		s.conn.abort()
		s.conn = nil
	}
	s.cell.putSession(s)
}

// handover moves the session towards a neighbouring cell. The session leaves
// this cell immediately: pending timers are carried as absolute times, and an
// active TCP transfer is interrupted — its unreceived segments restart in the
// target cell, while segments already queued at this cell's BSC drain without
// acknowledgement effect (the service interruption of a GPRS cell change).
// If the target has reached its session limit when the session arrives, the
// session is dropped (handover failure).
func (s *session) handover() {
	if !s.active {
		return
	}
	c := s.cell
	target := s.cfg().Topology.HandoverTarget(c.id, c.streams.handover.Intn)
	if target < 0 {
		s.scheduleHandover()
		return
	}
	c.n[probe.HandoversOut]++
	c.n[probe.SessionHandoversOut]++
	st := s.captureState()
	s.end()
	c.sim.dispatch(c, target, handoverMsg{kind: hoSession, sess: st, src: c.id})
}

// captureState serializes the session's activity phase for handover transit.
func (s *session) captureState() sessionState {
	st := sessionState{packetCallsLeft: s.packetCallsLeft}
	switch {
	case s.conn != nil:
		st.phase = phaseTCP
		st.packetsLeft = s.conn.total - s.conn.recvNext
	case s.packetsLeftInCall > 0:
		st.phase = phaseOpenLoop
		st.packetsLeft = s.packetsLeftInCall
		st.resumeAt = s.genEv.Time()
	default:
		st.phase = phaseReading
		st.resumeAt = s.genEv.Time()
	}
	return st
}

// scheduleHandover arms the dwell-time timer in the current cell, scaled by
// the cell's mobility profile (see cell.armDwell).
func (s *session) scheduleHandover() {
	c := s.cell
	c.armDwell(s.cfg().GPRSDwellTimeSec, s.handoverFn, s.setHandoverEv)
}

// connection is the TCP transfer of one packet call: a fixed-network sender
// paced by Reno congestion control, the BSC buffer as the bottleneck, and the
// mobile station as receiver returning cumulative acknowledgements. A
// connection lives and dies within one cell: the session's handover aborts it
// and restarts the outstanding segments in the target cell, so all of its
// events stay on the calendar of the cell that opened it.
//
// Connection records are pooled on the cell's freelist like every other model
// record, so the TCP path honours the allocation-free contract too: the only
// per-segment state is a ring of flag bytes allocated with the record and
// cleared on reuse, the segment/ACK transit hops are pooled connTransit
// records with closures bound once, and the tcp.Sender is allocated once per
// record and Reset on reuse.
// Send times are not tabled: each copy of a segment carries its own (see
// send and onAck). gen increments at every acquisition and is never reset,
// so packets and transit records stamped with an old generation can
// recognise that the record has moved on to a new transfer (the ABA guard of
// the pool).
type connection struct {
	sess   *session
	cell   *cell
	sender *tcp.Sender
	gen    uint64

	total    int
	recvNext int
	// Per-segment bookkeeping (see flag): flags marks segments received by
	// the mobile (segDelivered), and segSent and segRetrans gate
	// Karn-sampled RTT measurements. Segment seq keeps its flags in slot
	// seq mod len(flags), which is four maximum windows rounded up to a
	// power of two, 1<<lapShift.
	flags    []uint8
	lapShift uint

	rtoEv des.Handle
	done  bool

	onTimeoutFn func()
}

// newConnection acquires a pooled connection record of the session's cell for
// a transfer of totalSegments segments. The record returns fully reset: a
// recycled sender restarts in slow start, the per-segment flags are cleared,
// and the generation advances so stale packets and transits stand down.
func newConnection(s *session, totalSegments int) (*connection, error) {
	c := s.cell.getConn()
	if c.sender == nil {
		sender, err := tcp.NewSender(s.cfg().TCP)
		if err != nil {
			s.cell.putConn(c)
			return nil, err
		}
		c.sender = sender
		ring := nextPow2(4 * int(math.Ceil(sender.MaxWindow())))
		c.flags, c.lapShift = make([]uint8, ring), uint(bits.TrailingZeros(uint(ring)))
	} else {
		c.sender.Reset()
		clear(c.flags)
	}
	c.gen++
	c.sess = s
	c.done = false
	c.total = totalSegments
	c.recvNext = 0
	return c, nil
}

// Per-segment flags of connection.flags.
const (
	segDelivered uint8 = 1 << iota // received by the mobile
	segSent                        // sent at least once
	segRetrans                     // sent more than once
)

// flagBits is the number of low bits of a flag slot that hold the flags. The
// other five hold the lap of the segment they belong to, seq>>lapShift mod
// 32.
const flagBits = 3

// flag returns the flags of segment seq, 0 while its slot still holds those
// of an earlier lap. It panics if the slot holds a later lap, which the
// sender's window rules out: every segment sent lies within a window of the
// highest cumulative ACK, which is at most the receiver's, and segment copies
// are delivered and acknowledged in the order they were sent, so no segment
// more than three windows above a copy in flight is sent before that copy's
// ACK has been read.
func (c *connection) flag(seq int) uint8 {
	slot, lap := c.flags[seq&(len(c.flags)-1)], uint8(seq>>c.lapShift)<<flagBits
	if f := slot ^ lap; f < 1<<flagBits {
		return f
	}
	// The slot's lap less seq's, mod 32, in the five high bits.
	if slot-lap < 16<<flagBits {
		panic(staleFlags(seq))
	}
	return 0
}

// staleFlags is the panic of a flag read of a segment whose slot a later lap
// has taken.
type staleFlags int

func (s staleFlags) Error() string {
	return fmt.Sprintf("sim: flags of segment %d read after a segment a lap ahead replaced them", int(s))
}

// setFlags sets the flags of segment seq to f.
func (c *connection) setFlags(seq int, f uint8) {
	c.flags[seq&(len(c.flags)-1)] = uint8(seq>>c.lapShift)<<flagBits | f
}

// pump transmits new segments while the congestion window allows it.
func (c *connection) pump() {
	for !c.done && c.sender.CanSend() && c.sender.NextSequence() < c.total {
		seq := c.sender.OnSend()
		c.send(seq)
	}
}

// send ships one segment towards the BSC after the core-network delay. The
// transit, and the packet it becomes, carry the send time for onAck.
func (c *connection) send(seq int) {
	if c.done {
		return
	}
	f := c.flag(seq)
	if f&segSent != 0 {
		f |= segRetrans
	}
	c.setFlags(seq, f|segSent)
	t := c.cell.getCT()
	t.conn = c
	t.gen = c.gen
	t.kind = ctSegment
	t.seq = seq
	t.sentAt = c.cell.now()
	scheduleOn(c.cell.coreLane, t.fn)
	c.restartRTO()
}

// onDelivered is called when the copy of segment seq sent at sentAt reaches
// the mobile station; the receiver advances its cumulative ACK and returns it
// over the uplink, echoing seq and sentAt for the sender's RTT sample.
func (c *connection) onDelivered(seq int, sentAt float64) {
	if c.done {
		return
	}
	// A segment below recvNext has been delivered before.
	if seq >= c.recvNext {
		if f := c.flag(seq); f&segDelivered == 0 {
			c.setFlags(seq, f|segDelivered)
			for c.flag(c.recvNext)&segDelivered != 0 {
				c.recvNext++
			}
		}
	}
	t := c.cell.getCT()
	t.conn = c
	t.gen = c.gen
	t.kind = ctAck
	t.seq = seq
	t.sentAt = sentAt
	t.ack = c.recvNext
	scheduleOn(c.cell.ackLane, t.fn)
}

// onAck processes a cumulative acknowledgement arriving at the sender,
// triggered by the delivery of the copy of segment sampleSeq sent at sentAt.
// Karn's rule: the round trip is sampled only when sampleSeq was sent exactly
// once in this transfer. The generation checks on the packet and on both
// transit hops guarantee the copy came from this transfer, so it is that one
// send and sentAt is its time.
func (c *connection) onAck(ackVal, sampleSeq int, sentAt float64) {
	if c.done {
		return
	}
	var sample float64
	if c.flag(sampleSeq)&(segSent|segRetrans) == segSent {
		sample = c.cell.now() - sentAt
	}
	res := c.sender.OnAck(ackVal, sample)
	if res.FastRetransmit {
		seq := c.sender.OnRetransmit()
		c.send(seq)
	}
	if c.recvNext >= c.total && c.sender.InFlight() == 0 {
		c.complete()
		return
	}
	if c.sender.InFlight() > 0 {
		c.restartRTO()
	} else {
		c.rtoEv.Cancel()
	}
	c.pump()
}

// onTimeout reacts to a retransmission timeout: collapse the window and
// resend go-back-N style from the last cumulative acknowledgement.
func (c *connection) onTimeout() {
	if c.done {
		return
	}
	c.sender.OnTimeout()
	c.restartRTO()
	c.pump()
}

// restartRTO re-arms the retransmission timer. It runs on nearly every ACK,
// so the timer is re-armed in place rather than cancelled and scheduled anew.
func (c *connection) restartRTO() {
	c.rtoEv = c.cell.reschedule(c.rtoEv, c.sender.RTO(), c.onTimeoutFn)
}

// complete finishes the transfer, recycles the record, and hands control back
// to the session. Recycling before the session callback is safe on the
// single-goroutine calendar: packetCallComplete detaches the session from the
// connection as its first action, and any transfer it starts next acquires a
// record (possibly this one) only after the detach.
func (c *connection) complete() {
	if c.done {
		return
	}
	c.done = true
	c.rtoEv.Cancel()
	c.cell.n[probe.TCPTimeouts] += int64(c.sender.Timeouts())
	c.cell.n[probe.TCPFastRecovers] += int64(c.sender.FastRecoveries())
	sess := c.sess
	c.cell.putConn(c)
	sess.packetCallComplete()
}

// abort terminates the transfer without notifying the session (used when the
// session itself ends or leaves the cell) and recycles the record. The
// sender's congestion events are credited to the cell the transfer ran in;
// callers must capture any transfer state they need before aborting.
func (c *connection) abort() {
	if c.done {
		return
	}
	c.done = true
	c.rtoEv.Cancel()
	c.cell.n[probe.TCPTimeouts] += int64(c.sender.Timeouts())
	c.cell.n[probe.TCPFastRecovers] += int64(c.sender.FastRecoveries())
	c.cell.putConn(c)
}
