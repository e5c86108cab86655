package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/probe"
	"repro/internal/tcp"
	"repro/internal/traffic"
)

func poolTestCell(t *testing.T) *cell {
	t.Helper()
	topo, err := cluster.Preset(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.EnableTCP = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.cells[0]
}

// TestSessionPoolResetOnReuse proves a recycled session record carries no
// stale state into its next life: the freelist hands back the same record,
// fully reset, with its prebound action closures intact.
func TestSessionPoolResetOnReuse(t *testing.T) {
	c := poolTestCell(t)
	s1 := c.getSession()
	if s1.startPacketCallFn == nil || s1.generatePacketFn == nil ||
		s1.handoverFn == nil || s1.setHandoverEv == nil {
		t.Fatal("fresh session record is missing prebound closures")
	}
	// Dirty every field a live session mutates.
	s1.active = true
	s1.packetCallsLeft = 9
	s1.packetsLeftInCall = 4
	s1.conn = &connection{}
	s1.genEv = c.schedule(1, func() {})
	s1.handoverEv = c.schedule(2, func() {})
	s1.genEv.Cancel()
	s1.handoverEv.Cancel()
	c.putSession(s1)

	s2 := c.getSession()
	if s2 != s1 {
		t.Fatal("freelist should recycle the same record")
	}
	if s2.active || s2.packetCallsLeft != 0 || s2.packetsLeftInCall != 0 || s2.conn != nil {
		t.Errorf("recycled session carries stale state: %+v", s2)
	}
	if s2.genEv != (des.Handle{}) || s2.handoverEv != (des.Handle{}) {
		t.Error("recycled session carries stale event handles")
	}
	if s2.startPacketCallFn == nil || s2.generatePacketFn == nil {
		t.Error("recycling dropped the prebound closures")
	}
}

// TestVoiceCallPoolResetOnReuse is the voice-call counterpart.
func TestVoiceCallPoolResetOnReuse(t *testing.T) {
	c := poolTestCell(t)
	v1 := c.getVoice()
	if v1.departFn == nil || v1.handoverFn == nil || v1.setHandoverEv == nil {
		t.Fatal("fresh voice record is missing prebound closures")
	}
	v1.departAt = 123.5
	v1.departEv = c.schedule(1, func() {})
	v1.handoverEv = c.schedule(2, func() {})
	v1.departEv.Cancel()
	v1.handoverEv.Cancel()
	c.putVoice(v1)

	v2 := c.getVoice()
	if v2 != v1 {
		t.Fatal("freelist should recycle the same record")
	}
	if v2.departAt != 0 {
		t.Errorf("recycled voice call carries stale departAt %v", v2.departAt)
	}
	if v2.departEv != (des.Handle{}) || v2.handoverEv != (des.Handle{}) {
		t.Error("recycled voice call carries stale event handles")
	}
	if v2.departFn == nil || v2.handoverFn == nil {
		t.Error("recycling dropped the prebound closures")
	}
}

// TestQueuedHandoverPoolResetOnReuse is the handover-queue-entry counterpart:
// a served or expired entry returns reset, with its prebound expiry closure
// still bound to the same record.
func TestQueuedHandoverPoolResetOnReuse(t *testing.T) {
	c := poolTestCell(t)
	q1 := c.getQHO()
	if q1.expireFn == nil {
		t.Fatal("fresh queue entry is missing the prebound expiry closure")
	}
	if q1.cell != c {
		t.Fatal("fresh queue entry is not anchored to its cell")
	}
	q1.departAt = 321.25
	q1.expireEv = c.schedule(1, func() {})
	q1.expireEv.Cancel()
	c.putQHO(q1)

	q2 := c.getQHO()
	if q2 != q1 {
		t.Fatal("freelist should recycle the same record")
	}
	if q2.departAt != 0 {
		t.Errorf("recycled queue entry carries stale departAt %v", q2.departAt)
	}
	if q2.expireEv != (des.Handle{}) {
		t.Error("recycled queue entry carries a stale event handle")
	}
	if q2.expireFn == nil {
		t.Error("recycling dropped the prebound expiry closure")
	}
}

// TestConnectionPoolResetOnReuse proves a recycled connection record starts
// its next transfer exactly as a fresh one would: the sender back in slow
// start, the per-segment flags cleared, the RTO handle zeroed — and the
// generation advanced, so packets and transit hops stamped with the old
// generation stand down instead of waking the new occupant.
func TestConnectionPoolResetOnReuse(t *testing.T) {
	c := poolTestCell(t)
	sess := c.getSession()
	sess.cell = c

	c1, err := newConnection(sess, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := c1.gen
	// Dirty every field a live transfer mutates.
	c1.sender.OnSend()
	c1.setFlags(2, segDelivered)
	c1.setFlags(1, segSent|segRetrans)
	c1.recvNext = 2
	c1.rtoEv = c.schedule(1, func() {})
	c1.abort()

	c2, err := newConnection(sess, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("freelist should recycle the same record")
	}
	if c2.gen <= gen1 {
		t.Errorf("generation did not advance on reuse: %d -> %d", gen1, c2.gen)
	}
	if c2.done || c2.recvNext != 0 || c2.total != 3 {
		t.Errorf("recycled connection carries stale transfer state: done=%v recvNext=%d total=%d",
			c2.done, c2.recvNext, c2.total)
	}
	// Four default windows of 64 segments.
	if len(c2.flags) != 256 {
		t.Fatalf("per-segment flag ring holds %d segments, want 256", len(c2.flags))
	}
	for i := range c2.flags {
		if c2.flag(i) != 0 {
			t.Errorf("per-segment slot %d carries stale state", i)
		}
	}
	if c2.rtoEv != (des.Handle{}) {
		t.Error("recycled connection carries a stale RTO handle")
	}
	fresh, err := tcp.NewSender(sess.cfg().TCP)
	if err != nil {
		t.Fatal(err)
	}
	if *c2.sender != *fresh {
		t.Errorf("recycled sender %+v differs from a fresh one %+v", *c2.sender, *fresh)
	}

	// A transit hop stamped with the old generation must stand down.
	tr := c.getCT()
	tr.conn = c2
	tr.gen = gen1
	tr.kind = ctAck
	tr.ack = 2
	tr.fn()
	if c2.recvNext != 0 {
		t.Error("stale-generation transit mutated the record's new occupant")
	}
	tr2 := c.getCT()
	if tr2 != tr {
		t.Error("dispatched transit record did not return to the freelist")
	}
	c2.abort()
}

// TestSessionLifecycleRecycles drives one real session to completion and
// checks the record lands back on the freelist through the model's own code
// path (session.end), not just the manual put.
func TestSessionLifecycleRecycles(t *testing.T) {
	topo, err := cluster.Preset(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.EnableTCP = false
	cfg.GPRSDwellTimeSec = 1e9 // effectively no handovers: session dies at home
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.cells[0]
	c.addSession()
	sess := c.getSession()
	sess.scheduleHandover()
	sess.start()
	s.groups[0].eng.RunUntil(1e6)
	if sess.active {
		t.Fatal("session should have completed")
	}
	found := false
	for _, f := range c.freeSess.free {
		if f == sess {
			found = true
		}
	}
	if !found {
		t.Error("completed session did not return to the freelist")
	}
}

// TestBufferRingBound drives the BSC buffer ring to the capacity bound newCell
// sizes it for: BufferSize packets queued, every available PDCH finishing a
// head-of-line packet in one tick, and more arrivals before those packets'
// delivery tick. The pending packets no longer count against admission, so
// the buffer then holds BufferSize + TotalChannels packets, in FIFO order
// across the ring's wrap point, and the next arrival is dropped.
func TestBufferRingBound(t *testing.T) {
	c := poolTestCell(t)
	size, channels := c.sim.config.BufferSize, c.sim.config.Channels.TotalChannels
	ring := len(c.buf)
	if ring < size+channels || ring&(ring-1) != 0 {
		t.Fatalf("ring of %d packets: want a power of two >= %d", ring, size+channels)
	}
	c.head = ring - 7 // the queue wraps after its seventh packet
	seq := 0
	for ; seq < size; seq++ {
		if !c.enqueue(packet{seq: seq}) {
			t.Fatalf("packet %d dropped below the buffer size", seq)
		}
	}
	if c.enqueue(packet{seq: -1}) {
		t.Fatal("a full buffer admitted a packet")
	}
	for i := 0; i < channels; i++ {
		c.at(i).blocksLeft = 1 // one block left: every PDCH finishes a packet
	}
	c.eng.RunUntil(0) // the first tick allocates the last blocks
	if c.deliverPending != channels {
		t.Fatalf("%d packets pending delivery, want %d", c.deliverPending, channels)
	}
	for i := 0; i < channels+5; i++ {
		if ok := c.enqueue(packet{seq: seq}); ok {
			seq++
		}
	}
	if c.count != size+channels {
		t.Fatalf("buffer holds %d packets, want the bound %d", c.count, size+channels)
	}
	if got := c.n[probe.PacketsLost]; got != 6 {
		t.Errorf("%d packets dropped, want 6", got)
	}
	for i := 0; i < c.count; i++ {
		if got := c.at(i).seq; got != i {
			t.Fatalf("buffer position %d holds packet %d: FIFO order broken", i, got)
		}
	}

	c.eng.RunUntil(blockPeriodSec) // the delivery tick
	if got := c.n[probe.PacketsDelivered]; got != int64(channels) {
		t.Errorf("%d packets delivered, want %d", got, channels)
	}
	if c.count != size || c.at(0).seq != channels {
		t.Errorf("after delivery: %d packets from %d, want %d from %d", c.count, c.at(0).seq, size, channels)
	}
	if len(c.buf) != ring {
		t.Errorf("ring resized from %d to %d", ring, len(c.buf))
	}
}

// TestBufferRingFixedOverRun checks that no cell's buffer ring is ever
// reallocated over a full DefaultConfig run: enqueue has no grow path, so
// each ring keeps the backing array newCell gave it.
func TestBufferRingFixedOverRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full DefaultConfig run")
	}
	s, err := New(DefaultConfig(traffic.Model3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	rings := make([]*packet, len(s.cells))
	for i, c := range s.cells {
		rings[i] = &c.buf[0]
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range s.cells {
		if &c.buf[0] != rings[i] || len(c.buf) != cap(c.buf) {
			t.Errorf("cell %d: buffer ring reallocated during the run", i)
		}
	}
}
