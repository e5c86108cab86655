package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
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

// TestPacketPoolResetOnReuse is the packet counterpart: delivered and dropped
// packets return reset.
func TestPacketPoolResetOnReuse(t *testing.T) {
	c := poolTestCell(t)
	p1 := c.getPacket()
	p1.conn = &connection{}
	p1.seq = 7
	p1.enqueuedAt = 3.25
	p1.blocksLeft = 5
	c.putPacket(p1)

	p2 := c.getPacket()
	if p2 != p1 {
		t.Fatal("freelist should recycle the same record")
	}
	if p2.conn != nil || p2.seq != 0 || p2.enqueuedAt != 0 || p2.blocksLeft != 0 {
		t.Errorf("recycled packet carries stale state: %+v", p2)
	}
}

// TestConnectionPoolResetOnReuse proves a recycled connection record starts
// its next transfer exactly as a fresh one would: the sender back in slow
// start, the per-segment bookkeeping cleared, the RTO handle zeroed — and the
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
	c1.flags[2] = segDelivered
	c1.flags[1] = segSent | segRetrans
	c1.sendTime[1] = 3.5
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
	if len(c2.flags) != 3 || len(c2.sendTime) != 3 {
		t.Fatalf("per-segment slices not resized: %d/%d", len(c2.flags), len(c2.sendTime))
	}
	for i := 0; i < 3; i++ {
		if c2.flags[i] != 0 || c2.sendTime[i] != 0 {
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
