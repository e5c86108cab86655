package sim

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// blockPeriodSec is the duration of one RLC radio block (four TDMA frames).
const blockPeriodSec = 0.02

// streamsPerCell is the number of random variate streams each cell derives
// from the base seed (arrival, duration, traffic, handover).
const streamsPerCell = 4

// expBatch is the block size of the pre-drawn unit-exponential buffers on the
// exponential-only streams (arrival gaps, call durations). See
// des.Stream.BatchExponentials: batching amortizes generator dispatch without
// changing a single variate.
const expBatch = 64

// cellStreams groups the per-cell random variate streams. Every cell draws
// its arrivals, call durations, traffic variates, and handover decisions from
// its own streams, so a cell's sample path does not depend on how events of
// other cells interleave with its own — the property that makes every
// partitioning of the cells into calendar groups bit-identical.
type cellStreams struct {
	arrival  *des.Stream
	duration *des.Stream
	traffic  *des.Stream
	handover *des.Stream
}

// newCellStreams derives the streams of one cell from the base seed via
// SplitMix64 substreams (des.SubstreamSeed), which stays collision-free as
// the cell count grows — unlike the previous affine seed*4+k scheme, under
// which nearby base seeds aliased each other's streams. kind selects the draw
// behaviour of every stream: des.StreamDefault for the historic variates, or
// the paired/antithetic inversion modes the replication runner uses for
// antithetic-variate pairs (see Config.Streams). The arrival and duration
// streams serve exponential variates exclusively, so they run batched; the
// traffic and handover streams interleave distributions and must not.
func newCellStreams(seed int64, cellID int, kind des.StreamKind) cellStreams {
	sub := func(k uint64) *des.Stream {
		return des.NewStreamKind(des.SubstreamSeed(seed, uint64(cellID)*streamsPerCell+k), kind)
	}
	s := cellStreams{arrival: sub(0), duration: sub(1), traffic: sub(2), handover: sub(3)}
	s.arrival.BatchExponentials(expBatch)
	s.duration.BatchExponentials(expBatch)
	return s
}

// hoKind discriminates handover message payloads.
type hoKind uint8

const (
	hoVoice hoKind = iota
	hoSession
)

// voiceState is the serialized state of a voice call in handover transit.
type voiceState struct {
	// departAt is the absolute completion time of the call.
	departAt float64
}

// sessionPhase is the activity phase of a GPRS session at handover time.
type sessionPhase uint8

const (
	phaseReading sessionPhase = iota
	phaseOpenLoop
	phaseTCP
)

// sessionState is the serialized state of a GPRS session in handover transit.
// It is deliberately small: pending timers are carried as absolute times, and
// a TCP transfer is carried as its count of outstanding segments — the
// transfer restarts in the target cell, modelling the service interruption of
// a GPRS cell change (packets already queued in the source cell drain there
// without acknowledgement effect).
type sessionState struct {
	phase           sessionPhase
	packetCallsLeft int
	// packetsLeft is the number of open-loop packets still to generate in the
	// current packet call (phaseOpenLoop), or the number of TCP segments not
	// yet received by the mobile (phaseTCP).
	packetsLeft int
	// resumeAt is the absolute time of the pending traffic timer (end of the
	// reading period, or the next open-loop packet generation).
	resumeAt float64
}

// handoverMsg is the payload of one cross-cell handover.
type handoverMsg struct {
	kind  hoKind
	voice voiceState
	sess  sessionState
	// src is the cell the user handed over from. The directed-retry policy
	// uses it to pick the source's next-best neighbour; it is preserved
	// across the retry forward so the retry target is relative to the
	// original source, not the refusing cell.
	src int
	// retried marks a directed-retry forward: a handover may be retried at
	// most once, so a retried message that fails again drops the user.
	retried bool
}

// cell is one cell of the cluster: voice-channel occupancy, the BSC FIFO
// buffer for data packets, the set of active GPRS sessions, the measurement
// state, its group's event calendar, and its own random variate streams.
// Cells of one partition group share that calendar; cells interact only
// through handover messages.
//
// The steady-state event path of a cell is allocation-free: completed voice
// calls, sessions, and packets are recycled through per-cell freelists
// (reset on reuse), and every closure the hot path schedules is bound once —
// at cell construction or at record first-allocation — never per event.
// Allocation happens only while a freelist grows towards the cell's peak
// concurrent population, and at rate/mobility profile boundaries (O(number
// of boundaries), not O(events)).
type cell struct {
	id      int
	sim     *Simulator
	eng     *des.Simulation
	streams cellStreams

	voiceCalls int
	sessions   int
	buffer     []*packet

	// deliverPending is the number of leading buffer packets whose last radio
	// block was allocated by the previous tick: their transmission completes —
	// and they are delivered — at the next tick, one block period later. Until
	// then they still occupy the buffer (the gauge counts them), but they no
	// longer count against the BSC admission limit (queuedPackets).
	deliverPending int

	tickScheduled bool

	// Fixed-delay lanes of the cell's calendar, resolved once at
	// construction: the radio tick, core-network segment delivery, and the
	// uplink-plus-core ACK path (see des.Lane).
	tickLane, coreLane, ackLane *des.Lane

	// Prebound hot-path closures (one allocation each, at construction).
	radioTickFn func()
	armVoiceFn  func() // re-arm the voice arrival process
	armDataFn   func() // re-arm the data arrival process
	fireVoiceFn func() // handle a voice arrival, then re-arm
	fireDataFn  func() // handle a data arrival, then re-arm

	// Freelists recycling the model records of this cell. Records carry
	// their own prebound action closures, created once when the record is
	// first allocated and kept across reuses.
	freeVoice freelist[voiceCall]
	freeSess  freelist[session]
	freePkt   freelist[packet]
	freeConn  freelist[connection]
	freeCT    freelist[connTransit]

	// hoQueue is the bounded FIFO of voice handovers parked by the
	// queued-handovers policy (head at index 0), allocated lazily on the
	// first refusal; freeQHO recycles its entries, reset on reuse, so the
	// queue discipline stays on the allocation-free hot path.
	hoQueue []*queuedHO
	freeQHO freelist[queuedHO]

	// Mid-cell measurement state (allocated for every cell, but only the mid
	// cell's numbers are reported).
	pdchUsage stats.TimeWeighted
	queueLen  stats.TimeWeighted
	voiceOcc  stats.TimeWeighted
	sessOcc   stats.TimeWeighted

	// pr, when non-nil, is the armed probe's shadow gauge set for this cell:
	// every time-weighted update below is mirrored into it with the same
	// (time, value) pair, so the probe can read windowed means without ever
	// touching the model accumulators (see probeGauges).
	pr *probeGauges

	// counters holds the cell's event counters (see probe.Counters) and the
	// summed queueing delay of its delivered packets, cumulative since time 0.
	counters
}

// counters is the cumulative measurement state of one cell: every per-cell
// event counter, indexed by probe.Counter, plus the summed queueing delay of
// delivered packets. A copy taken by assignment is a snapshot; snapshots at
// the warm-up end, at batch boundaries, and at probe arming are differenced
// with minus.
type counters struct {
	n        [probe.NumCounters]int64
	delaySum float64
}

// minus returns the counts accumulated between snapshot prev and c.
func (c counters) minus(prev counters) counters {
	for k := range c.n {
		c.n[k] -= prev.n[k]
	}
	c.delaySum -= prev.delaySum
	return c
}

// queuedHO is one voice handover parked in the cell's bounded handover queue:
// the call's absolute completion time and the cancellable deadline timer.
// Entries are pooled through getQHO/putQHO with the expiry closure bound once
// at first allocation, keeping the queue discipline allocation-free at steady
// state.
type queuedHO struct {
	cell     *cell
	departAt float64
	expireEv des.Handle
	expireFn func()
}

// getQHO takes a queue entry off the cell's freelist, or allocates one with
// its expiry closure bound. Entries come back from putQHO fully reset.
func (c *cell) getQHO() *queuedHO {
	if q := c.freeQHO.get(); q != nil {
		return q
	}
	q := &queuedHO{cell: c}
	q.expireFn = func() { q.cell.expireQueued(q) }
	return q
}

// putQHO resets a served or expired queue entry and recycles it. The deadline
// timer must already be fired or cancelled.
func (c *cell) putQHO(q *queuedHO) {
	q.departAt = 0
	q.expireEv = des.Handle{}
	c.freeQHO.put(q)
}

// newCell constructs cell id of simulator s on its group's calendar eng,
// under s's defaulted configuration. It fails only when a configured delay
// cannot key a fixed-delay lane.
func newCell(id int, s *Simulator, eng *des.Simulation) (*cell, error) {
	cfg := &s.config
	c := &cell{id: id, sim: s, eng: eng, streams: newCellStreams(cfg.Seed, id, cfg.Streams)}
	var err error
	if c.tickLane, err = eng.Lane(blockPeriodSec); err != nil {
		return nil, err // a positive constant: unreachable
	}
	if c.coreLane, err = eng.Lane(cfg.CoreNetworkDelaySec); err != nil {
		return nil, fmt.Errorf("%w: core-network delay: %w", ErrInvalidConfig, err)
	}
	if c.ackLane, err = eng.Lane(cfg.UplinkDelaySec + cfg.CoreNetworkDelaySec); err != nil {
		return nil, fmt.Errorf("%w: uplink delay: %w", ErrInvalidConfig, err)
	}
	c.radioTickFn = c.radioTick
	c.armVoiceFn = func() { c.armArrival(true) }
	c.armDataFn = func() { c.armArrival(false) }
	c.fireVoiceFn = func() { c.gsmArrival(); c.armArrival(true) }
	c.fireDataFn = func() { c.gprsArrival(); c.armArrival(false) }
	return c, nil
}

// getVoice takes a voice-call record off the cell's freelist, or allocates
// one with its action closures bound. Records come back from putVoice fully
// reset.
func (c *cell) getVoice() *voiceCall {
	if v := c.freeVoice.get(); v != nil {
		return v
	}
	v := &voiceCall{cell: c}
	v.departFn = v.depart
	v.handoverFn = v.handover
	v.setHandoverEv = func(ev des.Handle) { v.handoverEv = ev }
	return v
}

// putVoice resets a finished voice-call record and recycles it. Both event
// handles must already be fired or cancelled.
func (c *cell) putVoice(v *voiceCall) {
	v.departAt = 0
	v.departEv = des.Handle{}
	v.handoverEv = des.Handle{}
	c.freeVoice.put(v)
}

// getSession takes a session record off the cell's freelist, or allocates
// one with its action closures bound. Records come back from putSession
// fully reset.
func (c *cell) getSession() *session {
	if s := c.freeSess.get(); s != nil {
		return s
	}
	s := &session{cell: c}
	s.startPacketCallFn = s.startPacketCall
	s.generatePacketFn = s.generatePacket
	s.handoverFn = s.handover
	s.setHandoverEv = func(ev des.Handle) { s.handoverEv = ev }
	return s
}

// putSession resets a terminated session record and recycles it. The
// session's pending events must already be cancelled and its TCP connection
// aborted (session.end does both).
func (c *cell) putSession(s *session) {
	s.active = false
	s.packetCallsLeft = 0
	s.conn = nil
	s.packetsLeftInCall = 0
	s.genEv = des.Handle{}
	s.handoverEv = des.Handle{}
	c.freeSess.put(s)
}

// getPacket takes a packet record off the cell's freelist, or allocates one.
// Records come back from putPacket fully reset.
func (c *cell) getPacket() *packet {
	if p := c.freePkt.get(); p != nil {
		return p
	}
	return &packet{}
}

// putPacket resets a delivered or dropped packet record and recycles it.
func (c *cell) putPacket(p *packet) {
	p.conn = nil
	p.connGen = 0
	p.seq = 0
	p.enqueuedAt = 0
	p.blocksLeft = 0
	c.freePkt.put(p)
}

// getConn takes a connection record off the cell's freelist, or allocates a
// bare one (newConnection binds the sender and the timeout closure and resets
// the transfer state). The record's generation counter survives recycling —
// it is the pool's ABA guard, advanced at every acquisition.
func (c *cell) getConn() *connection {
	if cc := c.freeConn.get(); cc != nil {
		return cc
	}
	cc := &connection{cell: c}
	cc.onTimeoutFn = cc.onTimeout
	return cc
}

// putConn recycles a completed or aborted connection record. The RTO timer
// must already be cancelled; gen is deliberately left alone (see getConn).
func (c *cell) putConn(cc *connection) {
	cc.sess = nil
	cc.rtoEv = des.Handle{}
	c.freeConn.put(cc)
}

// connTransit kind discriminators: a data segment crossing the core network
// towards the BSC, or a cumulative acknowledgement returning to the sender.
const (
	ctSegment = iota
	ctAck
)

// connTransit is one TCP segment or acknowledgement in flight between the
// fixed-network sender and the cell, pooled so per-segment scheduling stays
// off the allocator. fn is bound once, at first allocation; it recycles the
// record before dispatching (the dispatch may itself acquire a transit), and
// the generation check drops hops whose connection ended — or was recycled
// into a new transfer — while they travelled.
type connTransit struct {
	cell *cell
	conn *connection
	gen  uint64
	kind int
	seq  int
	ack  int
	fn   func()
}

// getCT takes a transit record off the cell's freelist, or allocates one with
// its dispatch closure bound.
func (c *cell) getCT() *connTransit {
	if t := c.freeCT.get(); t != nil {
		return t
	}
	t := &connTransit{cell: c}
	t.fn = func() {
		conn, gen, kind, seq, ack := t.conn, t.gen, t.kind, t.seq, t.ack
		t.conn = nil
		t.cell.freeCT.put(t)
		if conn.done || conn.gen != gen {
			return
		}
		if kind == ctSegment {
			p := conn.cell.getPacket()
			p.conn = conn
			p.connGen = gen
			p.seq = seq
			conn.cell.enqueue(p)
			return
		}
		conn.onAck(ack, seq)
	}
	return t
}

func (c *cell) now() float64 { return c.eng.Now() }

// schedule registers an action after the given delay on the cell's calendar
// and returns its event handle. Delays are always non-negative in this
// package, so scheduling cannot fail; a zero handle is returned only for a
// nil action.
func (c *cell) schedule(delay float64, action func()) des.Handle {
	if delay < 0 {
		delay = 0
	}
	ev, err := c.eng.ScheduleAfter(delay, action)
	if err != nil {
		return des.Handle{}
	}
	return ev
}

// reschedule re-arms the event of h after the given delay, exactly as
// h.Cancel() followed by schedule(delay, action) would, and returns its new
// handle.
func (c *cell) reschedule(h des.Handle, delay float64, action func()) des.Handle {
	if delay < 0 {
		delay = 0
	}
	ev, err := c.eng.RescheduleAfter(h, delay, action)
	if err != nil {
		return des.Handle{}
	}
	return ev
}

// scheduleOn appends an action to one of the cell's fixed-delay lanes, which
// fires it exactly as schedule(lane delay, action) would. Lane delays are
// finite and actions non-nil, so scheduling cannot fail.
func scheduleOn(l *des.Lane, action func()) {
	if err := l.Schedule(action); err != nil {
		panic(err)
	}
}

// start arms the fresh-arrival Poisson processes of the cell under its rate
// profile.
func (c *cell) start() {
	c.armArrival(true)
	c.armArrival(false)
}

// armArrival schedules the next fresh arrival of one class (GSM voice calls
// or GPRS session requests) under the cell's piecewise-constant rate profile.
// Within a constant-rate segment the next arrival is one exponential gap
// away; a gap that crosses the next rate-change boundary is discarded and the
// process re-arms at the boundary with the new rate — exact for
// piecewise-constant rates by the memorylessness of the exponential. Under a
// constant profile the boundary is +Inf, so the code draws exactly one
// variate per arrival, reproducing the fixed-rate arrival stream bit for bit.
// All decisions depend only on the cell's own stream and the (pure) profile,
// which keeps every partitioning bit-identical. The scheduled
// actions are the cell's prebound closures, so arming allocates nothing.
func (c *cell) armArrival(voice bool) {
	prof := c.sim.config.Rates
	now := c.now()
	rate, dataRate := prof.Rates(c.id, now)
	rearm, fire := c.armVoiceFn, c.fireVoiceFn
	if !voice {
		rate = dataRate
		rearm, fire = c.armDataFn, c.fireDataFn
	}
	if rate <= 0 {
		// No arrivals in this segment; wake up when the rates next change.
		if bound := prof.NextChange(now); !math.IsInf(bound, 1) {
			c.schedule(bound-now, rearm)
		}
		return
	}
	gap := c.streams.arrival.Exponential(1 / rate)
	if bound := prof.NextChange(now); now+gap >= bound {
		c.schedule(bound-now, rearm)
		return
	}
	c.schedule(gap, fire)
}

// armDwell schedules fire after an exponential dwell time whose mean is the
// given base dwell time scaled by the cell's mobility profile, re-arming at
// profile boundaries for time-varying multipliers: a draw that crosses the
// next multiplier-change boundary is discarded and the timer redrawn at the
// boundary with the new mean — exact for piecewise-constant multipliers by
// the memorylessness of the exponential, mirroring armArrival. Under a nil
// profile (and under any constant profile) the boundary is +Inf, so exactly
// one variate is drawn per dwell; with multiplier 1 that variate equals the
// profile-less draw, reproducing the symmetric handover flow bit for bit.
// set receives every scheduled event handle (the dwell timer or a boundary
// re-arm), so the owner's cancellable handle always tracks the pending
// event. All decisions depend only on the cell's own stream and the (pure)
// profile, which keeps every partitioning bit-identical. fire
// and set are the owning record's prebound closures; the boundary re-arm
// closure is the one allocation left on this path, costing O(profile
// boundaries), not O(events) — under constant profiles it never runs.
func (c *cell) armDwell(base float64, fire func(), set func(des.Handle)) {
	mean := base
	bound := math.Inf(1)
	if prof := c.sim.config.Mobility; prof != nil {
		now := c.now()
		mean = base * prof.Multiplier(c.id, now)
		bound = prof.NextChange(now)
	}
	dwell := c.streams.handover.Exponential(mean)
	if now := c.now(); now+dwell >= bound {
		set(c.schedule(bound-now, func() { c.armDwell(base, fire, set) }))
		return
	}
	set(c.schedule(dwell, fire))
}

// gsmArrival handles a fresh GSM voice call.
func (c *cell) gsmArrival() {
	c.n[probe.GSMArrivals]++
	if !c.canAdmitNewVoice() {
		c.n[probe.GSMBlocked]++
		if c.canAdmitVoice() {
			// A channel was free but reserved for handovers: the block is
			// attributable to the guard policy alone.
			c.n[probe.GuardBlockedCalls]++
		}
		return
	}
	c.addVoice()
	duration := c.streams.duration.Exponential(c.sim.config.GSMCallDurationSec)
	call := c.getVoice()
	call.departAt = c.now() + duration
	call.departEv = c.schedule(duration, call.departFn)
	call.scheduleHandover()
}

// gprsArrival handles a fresh GPRS session request.
func (c *cell) gprsArrival() {
	c.n[probe.GPRSArrivals]++
	if !c.canAdmitSession() {
		c.n[probe.GPRSBlocked]++
		return
	}
	c.addSession()
	s := c.getSession()
	s.scheduleHandover()
	s.start()
}

// receive handles a handover message arriving from another cell: the user is
// admitted or dropped (handover failure) under the same admission rules as in
// the source-cell-resident model. Every message counts as a handover arrival
// regardless of the outcome, so flow-conservation accounting balances.
func (c *cell) receive(m handoverMsg) {
	c.n[probe.HandoverArrivals]++
	switch m.kind {
	case hoVoice:
		c.receiveVoice(m)
	case hoSession:
		c.receiveSession(m)
	}
}

// receiveVoice admits a voice call arriving by handover. A call refused for
// lack of a free channel is offered to the configured policy — parked in the
// handover queue or forwarded once by directed retry — before it counts as a
// handover failure.
func (c *cell) receiveVoice(m handoverMsg) {
	st := m.voice
	if st.departAt <= c.now() {
		c.n[probe.HandoverTransitEnds]++
		return // the call ended during the handover interruption
	}
	if !c.canAdmitVoice() {
		if c.refuseVoiceHandover(m) {
			return
		}
		c.n[probe.HandoverFailures]++
		return // handover failure: the call is dropped
	}
	c.addVoice()
	c.n[probe.HandoversIn]++
	call := c.getVoice()
	call.departAt = st.departAt
	call.departEv = c.schedule(st.departAt-c.now(), call.departFn)
	call.scheduleHandover()
}

// refuseVoiceHandover applies the configured policy to a voice handover that
// found no free channel. It returns true when the policy disposed of the
// user (queued, or forwarded by directed retry) and false when the handover
// must count as an immediate failure — no policy, a full queue, or a forward
// that already failed once.
func (c *cell) refuseVoiceHandover(m handoverMsg) bool {
	p := c.sim.config.Policy
	if p == nil {
		return false
	}
	switch p.Kind {
	case policy.QueuedHandovers:
		if len(c.hoQueue) >= p.QueueCapacity {
			return false // queue full: immediate failure
		}
		if c.hoQueue == nil {
			c.hoQueue = make([]*queuedHO, 0, p.QueueCapacity)
		}
		q := c.getQHO()
		q.departAt = m.voice.departAt
		// The entry expires at the policy deadline, or when the waiting call
		// would have completed anyway, whichever comes first.
		wait := p.QueueDeadlineSec
		if rem := m.voice.departAt - c.now(); rem < wait {
			wait = rem
		}
		q.expireEv = c.schedule(wait, q.expireFn)
		c.hoQueue = append(c.hoQueue, q)
		c.n[probe.HandoversQueued]++
		return true
	case policy.DirectedRetry:
		if m.retried {
			return false
		}
		c.forwardRetry(m)
		return true
	}
	return false
}

// expireQueued handles the deadline timer of a queued handover: the entry
// leaves the queue and the handover fails.
func (c *cell) expireQueued(q *queuedHO) {
	for i, e := range c.hoQueue {
		if e == q {
			copy(c.hoQueue[i:], c.hoQueue[i+1:])
			c.hoQueue[len(c.hoQueue)-1] = nil
			c.hoQueue = c.hoQueue[:len(c.hoQueue)-1]
			break
		}
	}
	c.n[probe.HandoverQueueExpired]++
	c.n[probe.HandoverFailures]++
	c.putQHO(q)
}

// serveQueuedHandover admits the head of the handover queue into the channel
// a departing call just freed (called from removeVoice whenever the queue is
// non-empty). A head whose call completed at exactly this instant — its
// deadline timer is pending at the same timestamp — expires instead.
func (c *cell) serveQueuedHandover() {
	if !c.canAdmitVoice() {
		return
	}
	q := c.hoQueue[0]
	copy(c.hoQueue, c.hoQueue[1:])
	c.hoQueue[len(c.hoQueue)-1] = nil
	c.hoQueue = c.hoQueue[:len(c.hoQueue)-1]
	q.expireEv.Cancel()
	departAt := q.departAt
	c.putQHO(q)
	if departAt <= c.now() {
		c.n[probe.HandoverQueueExpired]++
		c.n[probe.HandoverFailures]++
		return
	}
	c.n[probe.HandoverQueueServed]++
	c.addVoice()
	c.n[probe.HandoversIn]++
	call := c.getVoice()
	call.departAt = departAt
	call.departEv = c.schedule(departAt-c.now(), call.departFn)
	call.scheduleHandover()
}

// forwardRetry forwards a refused handover once towards the source cell's
// next-best neighbour: the neighbour following this cell in the source's
// deterministic neighbour order. No random draw is consumed, and the forward
// travels as an ordinary handover message under the same
// HandoverLatencySec, so the shard engine's conservative-window lookahead
// covers it unchanged. The forward counts as a handover departure of this
// cell, keeping the cluster-wide flow ledger (arrivals balance departures)
// exact.
func (c *cell) forwardRetry(m handoverMsg) {
	topo := c.sim.config.Topology
	deg := topo.Degree(m.src)
	idx := 0
	for i := 0; i < deg; i++ {
		if topo.NeighborAt(m.src, i) == c.id {
			idx = i
			break
		}
	}
	target := topo.NeighborAt(m.src, (idx+1)%deg)
	c.n[probe.HandoverRetries]++
	c.n[probe.HandoversOut]++
	if m.kind == hoVoice {
		c.n[probe.VoiceHandoversOut]++
	} else {
		c.n[probe.SessionHandoversOut]++
	}
	m.retried = true
	c.sim.dispatch(c, target, m)
}

// receiveSession admits a GPRS session arriving by handover and resumes its
// activity phase. Under the directed-retry policy a refused session is
// forwarded once, like a refused voice handover.
func (c *cell) receiveSession(m handoverMsg) {
	st := m.sess
	if !c.canAdmitSession() {
		if p := c.sim.config.Policy; p != nil && p.Kind == policy.DirectedRetry && !m.retried {
			c.forwardRetry(m)
			return
		}
		c.n[probe.HandoverFailures]++
		return // handover failure: the session is forced to terminate
	}
	c.addSession()
	c.n[probe.HandoversIn]++
	s := c.getSession()
	s.active = true
	s.packetCallsLeft = st.packetCallsLeft
	s.scheduleHandover()
	switch st.phase {
	case phaseReading:
		s.genEv = c.schedule(max(0, st.resumeAt-c.now()), s.startPacketCallFn)
	case phaseOpenLoop:
		s.packetsLeftInCall = st.packetsLeft
		s.genEv = c.schedule(max(0, st.resumeAt-c.now()), s.generatePacketFn)
	case phaseTCP:
		if st.packetsLeft <= 0 {
			// Every segment had reached the mobile; only the closing
			// acknowledgements were outstanding. The packet call is done.
			s.packetCallComplete()
			return
		}
		s.startTransfer(st.packetsLeft)
	}
}

// canAdmitVoice reports whether a voice call (fresh or handed over) can be
// accepted on the cell's free channels.
func (c *cell) canAdmitVoice() bool {
	return c.sim.config.Channels.CanAdmitGSMCall(c.voiceCalls)
}

// canAdmitNewVoice reports whether a fresh GSM call can be accepted. Under
// the guard-channel policy fresh calls are admitted only while fewer than
// GSMChannels-Guard channels are busy, leaving the reserve to handover
// arrivals; under every other policy fresh calls and handovers share the
// channels.
func (c *cell) canAdmitNewVoice() bool {
	conf := &c.sim.config
	if p := conf.Policy; p != nil && p.Kind == policy.GuardChannels {
		return c.voiceCalls < conf.Channels.GSMChannels()-p.Guard
	}
	return c.canAdmitVoice()
}

// canAdmitSession reports whether a new GPRS session can be accepted.
func (c *cell) canAdmitSession() bool {
	return c.sessions < c.sim.config.MaxSessions
}

func (c *cell) addVoice() {
	c.voiceCalls++
	c.voiceOcc.Update(c.now(), float64(c.voiceCalls))
	if c.pr != nil {
		c.pr.voice.Update(c.now(), float64(c.voiceCalls))
	}
}

func (c *cell) removeVoice() {
	c.voiceCalls--
	c.voiceOcc.Update(c.now(), float64(c.voiceCalls))
	if c.pr != nil {
		c.pr.voice.Update(c.now(), float64(c.voiceCalls))
	}
	if len(c.hoQueue) > 0 {
		// The freed channel goes to the longest-waiting queued handover.
		c.serveQueuedHandover()
	}
}

func (c *cell) addSession() {
	c.sessions++
	c.sessOcc.Update(c.now(), float64(c.sessions))
	if c.pr != nil {
		c.pr.sess.Update(c.now(), float64(c.sessions))
	}
}

func (c *cell) removeSession() {
	c.sessions--
	c.sessOcc.Update(c.now(), float64(c.sessions))
	if c.pr != nil {
		c.pr.sess.Update(c.now(), float64(c.sessions))
	}
}

// queuedPackets is the number of packets awaiting (or under) transmission:
// the buffer contents minus the packets already fully transmitted and merely
// waiting for their delivery tick. Admission and instantaneous queue-length
// reads use this count, matching the paper's finite BSC buffer.
func (c *cell) queuedPackets() int { return len(c.buffer) - c.deliverPending }

// enqueue offers a packet to the BSC buffer. It returns false when the buffer
// is full; the dropped packet is recycled, so callers must not retain it.
func (c *cell) enqueue(p *packet) bool {
	c.n[probe.PacketsOffered]++
	if c.queuedPackets() >= c.sim.config.BufferSize {
		c.n[probe.PacketsLost]++
		c.putPacket(p)
		return false
	}
	p.enqueuedAt = c.now()
	p.blocksLeft = c.sim.bpp
	c.buffer = append(c.buffer, p)
	c.queueLen.Update(c.now(), float64(len(c.buffer)))
	if c.pr != nil {
		c.pr.queue.Update(c.now(), float64(len(c.buffer)))
	}
	c.ensureTick()
	return true
}

// ensureTick schedules the next radio-block tick if transmissions are pending
// and no tick is scheduled yet.
func (c *cell) ensureTick() {
	if c.tickScheduled || len(c.buffer) == 0 {
		return
	}
	c.tickScheduled = true
	c.schedule(0, c.radioTickFn)
}

// radioTick transmits one radio-block period worth of data: every available
// PDCH carries one RLC block, packets are served head-of-line first with at
// most eight PDCHs per packet (multislot limit). Packets whose last block was
// allocated by the previous tick complete transmission now, exactly one block
// period later, so deliveries — and every gauge update they cause — are
// processed at their true timestamps, in time order. Mid-run observers (the
// probe samplers) therefore see gauges whose accumulators never run ahead of
// the engine clock, which is what makes window-boundary sampling exact.
func (c *cell) radioTick() {
	c.tickScheduled = false
	now := c.now()

	// Deliver the head-of-line packets that finished transmitting during the
	// block period that just ended.
	if c.deliverPending > 0 {
		for _, p := range c.buffer[:c.deliverPending] {
			c.deliver(p)
			c.putPacket(p)
		}
		n := copy(c.buffer, c.buffer[c.deliverPending:])
		for i := n; i < len(c.buffer); i++ {
			c.buffer[i] = nil
		}
		c.buffer = c.buffer[:n]
		c.deliverPending = 0
		c.queueLen.Update(now, float64(len(c.buffer)))
		if c.pr != nil {
			c.pr.queue.Update(now, float64(len(c.buffer)))
		}
	}

	if len(c.buffer) == 0 {
		c.pdchUsage.Update(now, 0)
		if c.pr != nil {
			c.pr.pdch.Update(now, 0)
		}
		return
	}

	available := c.sim.config.Channels.AvailablePDCH(c.voiceCalls)
	blocks := available
	used := 0
	for _, p := range c.buffer {
		if blocks == 0 {
			break
		}
		alloc := p.blocksLeft
		if alloc > radio.MaxSlotsPerMobile {
			alloc = radio.MaxSlotsPerMobile
		}
		if alloc > blocks {
			alloc = blocks
		}
		p.blocksLeft -= alloc
		blocks -= alloc
		used += alloc
	}
	c.pdchUsage.Update(now, float64(used))
	if c.pr != nil {
		c.pr.pdch.Update(now, float64(used))
	}

	// Packets whose last block was allocated above form a prefix of the
	// buffer (head-of-line service); they deliver at the next tick.
	for _, p := range c.buffer {
		if p.blocksLeft > 0 {
			break
		}
		c.deliverPending++
	}

	c.tickScheduled = true
	scheduleOn(c.tickLane, c.radioTickFn)
}

// deliver records the delivery of a packet to the mobile station and notifies
// the owning TCP connection, if any. The caller recycles the packet. The
// generation check keeps a packet from waking a connection record that was
// recycled (and re-acquired) while the packet drained through the buffer.
func (c *cell) deliver(p *packet) {
	c.n[probe.PacketsDelivered]++
	c.delaySum += c.now() - p.enqueuedAt
	if p.conn != nil && p.conn.gen == p.connGen {
		p.conn.onDelivered(p.seq)
	}
}

// resetBatchWindow restarts the time-weighted statistics and returns a
// snapshot of the cumulative counters. It runs exactly once per cell, at the
// end of the warm-up: batch boundaries difference the running integrals
// (finishBatch) instead of restarting the gauges, so every gauge measures the
// whole window uninterrupted.
func (c *cell) resetBatchWindow(now float64) counters {
	c.pdchUsage.Start(now, c.pdchUsage.Current())
	c.queueLen.Start(now, float64(len(c.buffer)))
	c.voiceOcc.Start(now, float64(c.voiceCalls))
	c.sessOcc.Start(now, float64(c.sessions))
	return c.counters
}

// gaugeIntegrals is a snapshot of the four time-weighted accumulators'
// integrals at a batch boundary, read with the non-mutating
// stats.TimeWeighted.IntegralAt so taking it never perturbs the accumulators.
type gaugeIntegrals struct {
	pdch, queue, voice, sess float64
}

func (c *cell) gaugeIntegralsAt(t float64) gaugeIntegrals {
	return gaugeIntegrals{
		pdch:  c.pdchUsage.IntegralAt(t),
		queue: c.queueLen.IntegralAt(t),
		voice: c.voiceOcc.IntegralAt(t),
		sess:  c.sessOcc.IntegralAt(t),
	}
}

// finishBatch computes the per-batch observations between the previous
// counter snapshot / integral snapshot and now and feeds them into the
// accumulator, returning the integral snapshot at now for the next batch.
// Differencing integrals (instead of restarting the gauges every batch)
// leaves the accumulators untouched across the whole measurement period, so
// the terminal gauge means — and the armed probe's shadow copies of them —
// are exact window averages, bit-identical between the per-cell report and
// the probe series.
func (c *cell) finishBatch(acc *batchAccumulator, prev counters, prevInt gaugeIntegrals, now, batchDur float64) gaugeIntegrals {
	d := c.counters.minus(prev)
	curInt := c.gaugeIntegralsAt(now)

	acc.cdt.AddBatchMean((curInt.pdch - prevInt.pdch) / batchDur)
	acc.queueLen.AddBatchMean((curInt.queue - prevInt.queue) / batchDur)
	ags := (curInt.sess - prevInt.sess) / batchDur
	acc.ags.AddBatchMean(ags)
	acc.cvt.AddBatchMean((curInt.voice - prevInt.voice) / batchDur)

	delivered := d.n[probe.PacketsDelivered]
	acc.plp.AddBatchMean(ratio(float64(d.n[probe.PacketsLost]), d.n[probe.PacketsOffered]))
	acc.qd.AddBatchMean(ratio(d.delaySum, delivered))
	throughput := float64(delivered) * float64(traffic.PacketSizeBits) / batchDur
	acc.throughput.AddBatchMean(throughput)
	if ags > 0 {
		acc.atu.AddBatchMean(throughput / ags)
	} else {
		acc.atu.AddBatchMean(0)
	}
	acc.gsmBlock.AddBatchMean(ratio(float64(d.n[probe.GSMBlocked]), d.n[probe.GSMArrivals]))
	acc.gprsBlock.AddBatchMean(ratio(float64(d.n[probe.GPRSBlocked]), d.n[probe.GPRSArrivals]))
	return curInt
}

// ratio returns num/den, or 0 when den is not positive (a batch or a
// measurement period in which the denominator's event never happened).
func ratio(num float64, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return num / float64(den)
}
