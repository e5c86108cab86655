// Allocation-budget pin for the conservative engine's window machinery.
// Excluded from race builds: race instrumentation allocates on its own.
//
//go:build !race

package shard

import "testing"

// allocRingProc is a synthetic allocation-free process: every window it emits one
// message to the next process in the ring, reusing a persistent outbox and a
// pooled payload record, mirroring how internal/sim's groupProc behaves after
// the pooling refactor.
type allocRingProc struct {
	id, n  int
	now    float64
	seq    uint64
	outbox []Message
	recv   int
}

func (p *allocRingProc) Advance(t float64) []Message {
	p.outbox = p.outbox[:0]
	p.now = t
	p.seq++
	p.outbox = append(p.outbox, Message{
		At:  t + 1, // exactly one lookahead ahead
		Src: p.id,
		Dst: (p.id + 1) % p.n,
		Seq: p.seq,
	})
	return p.outbox
}

func (p *allocRingProc) Deliver(Message) { p.recv++ }

// TestWindowSteadyStateAllocs pins that the serial window loop — Advance
// fan-in, barrier merge sort, delivery — stays off the allocator once its
// persistent buffers have grown: thousands of windows amortize the few
// per-AdvanceTo-call setup allocations to well under one per window.
func TestWindowSteadyStateAllocs(t *testing.T) {
	procs := make([]Process, 8)
	rings := make([]*allocRingProc, 8)
	for i := range procs {
		rings[i] = &allocRingProc{id: i, n: len(procs)}
		procs[i] = rings[i]
	}
	e, err := New(procs, Options{Lookahead: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AdvanceTo(100); err != nil { // grow merge + window buffers
		t.Fatal(err)
	}
	now := 100.0
	const windowsPerRun = 1000
	avg := testing.AllocsPerRun(5, func() {
		now += windowsPerRun
		if err := e.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	})
	if perWindow := avg / windowsPerRun; perWindow > 0.01 {
		t.Errorf("window loop allocates %.4f allocs/window, want ~0", perWindow)
	}
	for _, r := range rings {
		if r.recv == 0 {
			t.Fatalf("ring process %d received no messages; the pin would be vacuous", r.id)
		}
	}
}
