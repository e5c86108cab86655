package shard

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/des"
)

// ringProc is a test process: a private calendar plus a token-passing rule.
// When a token arrives, the process logs it and forwards an incremented copy
// to the next process on the ring after `delay` seconds.
type ringProc struct {
	id, n  int
	delay  float64
	eng    *des.Simulation
	outbox []Message
	seq    uint64
	log    []string
}

func newRing(n int, delay float64) []*ringProc {
	procs := make([]*ringProc, n)
	for i := range procs {
		procs[i] = &ringProc{id: i, n: n, delay: delay, eng: des.NewSimulation()}
	}
	return procs
}

func (p *ringProc) send(value int) {
	p.seq++
	p.outbox = append(p.outbox, Message{
		At:      p.eng.Now() + p.delay,
		Src:     p.id,
		Dst:     (p.id + 1) % p.n,
		Seq:     p.seq,
		Payload: value,
	})
}

func (p *ringProc) receive(m Message) {
	v := m.Payload.(int)
	p.log = append(p.log, fmt.Sprintf("%.3f:%d", p.eng.Now(), v))
	if v < 40 {
		p.send(v + 1)
	}
}

func (p *ringProc) Advance(t float64) []Message {
	p.eng.RunUntil(t)
	out := append([]Message(nil), p.outbox...)
	p.outbox = p.outbox[:0]
	return out
}

func (p *ringProc) Deliver(m Message) {
	p.eng.Schedule(m.At, func() { p.receive(m) })
}

// runRing advances a fresh token ring to time 100 under the given options and
// returns the concatenated per-process logs.
func runRing(t *testing.T, n int, delay float64, opt Options) [][]string {
	t.Helper()
	procs := newRing(n, delay)
	// Seed one token per process so every shard has work.
	for _, p := range procs {
		p.eng.Schedule(0.25+0.1*float64(p.id), func() { p.send(0) })
	}
	ifaces := make([]Process, n)
	for i, p := range procs {
		ifaces[i] = p
	}
	eng, err := New(ifaces, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Advance in uneven steps so windows get clipped at odd boundaries.
	for _, until := range []float64{0.4, 7.31, 55.5, 100} {
		if err := eng.AdvanceTo(until); err != nil {
			t.Fatal(err)
		}
		if eng.now != until {
			t.Fatalf("Now = %v after AdvanceTo(%v)", eng.now, until)
		}
	}
	logs := make([][]string, n)
	for i, p := range procs {
		logs[i] = p.log
	}
	return logs
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, Options{Lookahead: 1}); !errors.Is(err, ErrInvalidEngine) {
		t.Error("empty process list should be rejected")
	}
	procs := []Process{newRing(1, 1)[0]}
	for _, la := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(procs, Options{Lookahead: la}); !errors.Is(err, ErrInvalidEngine) {
			t.Errorf("lookahead %v should be rejected", la)
		}
	}
	eng, err := New(procs, Options{Lookahead: 1, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.groups) != 1 {
		t.Errorf("shards should be capped at the process count, got %d", len(eng.groups))
	}
}

func TestDeterministicAcrossShardLayouts(t *testing.T) {
	const n, delay = 9, 0.5
	base := runRing(t, n, delay, Options{Lookahead: delay, Shards: 1})
	var tokens int
	for _, log := range base {
		tokens += len(log)
	}
	if tokens == 0 {
		t.Fatal("no tokens travelled the ring")
	}
	for _, shards := range []int{2, 3, 4, 9} {
		got := runRing(t, n, delay, Options{Lookahead: delay, Shards: shards})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d produced different logs than shards=1", shards)
		}
	}
	// A shorter lookahead (more windows) must not change results either.
	if got := runRing(t, n, delay, Options{Lookahead: delay / 3, Shards: 3}); !reflect.DeepEqual(got, base) {
		t.Error("smaller lookahead changed the results")
	}
}

func TestLookaheadViolationDetected(t *testing.T) {
	procs := newRing(4, 0.25)
	for _, p := range procs {
		p.eng.Schedule(0.1, func() { p.send(0) })
	}
	ifaces := make([]Process, len(procs))
	for i, p := range procs {
		ifaces[i] = p
	}
	// Lookahead larger than the actual message delay: messages arrive inside
	// the producing window.
	eng, err := New(ifaces, Options{Lookahead: 1.0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(10); !errors.Is(err, ErrLookaheadViolated) {
		t.Fatalf("expected lookahead violation, got %v", err)
	}
	if err := eng.AdvanceTo(20); !errors.Is(err, ErrLookaheadViolated) {
		t.Error("engine should keep reporting the synchronization error")
	}
}

// countingLimiter records the peak number of concurrent holders.
type countingLimiter struct {
	mu     sync.Mutex
	tokens chan struct{}
	active int32
	peak   int32
}

func (l *countingLimiter) Acquire() {
	l.tokens <- struct{}{}
	n := atomic.AddInt32(&l.active, 1)
	l.mu.Lock()
	if n > l.peak {
		l.peak = n
	}
	l.mu.Unlock()
}

func (l *countingLimiter) Release() {
	atomic.AddInt32(&l.active, -1)
	<-l.tokens
}

func TestLimiterBoundsShardConcurrency(t *testing.T) {
	lim := &countingLimiter{tokens: make(chan struct{}, 2)}
	got := runRing(t, 8, 0.5, Options{Lookahead: 0.5, Shards: 8, Limiter: lim})
	want := runRing(t, 8, 0.5, Options{Lookahead: 0.5, Shards: 1})
	if !reflect.DeepEqual(got, want) {
		t.Error("limited run produced different results")
	}
	if lim.peak > 2 {
		t.Errorf("observed %d concurrent shards, limiter cap is 2", lim.peak)
	}
}

// selfProc is a lone process that records when its inbound messages fire;
// the test queues its outbound messages directly.
type selfProc struct {
	eng    *des.Simulation
	outbox []Message
	got    []float64
}

func (p *selfProc) Advance(t float64) []Message {
	p.eng.RunUntil(t)
	out := p.outbox
	p.outbox = nil
	return out
}

func (p *selfProc) Deliver(m Message) {
	p.eng.Schedule(m.At, func() { p.got = append(p.got, p.eng.Now()) })
}

// TestSingleProcessOneWindowPerAdvance pins the single-process shortcut: an
// engine over one process runs each AdvanceTo as exactly one window, however
// far the target lies beyond the lookahead.
func TestSingleProcessOneWindowPerAdvance(t *testing.T) {
	p := &selfProc{eng: des.NewSimulation()}
	eng, err := New([]Process{p}, Options{Lookahead: 0.5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, until := range []float64{0.4, 7.31, 55.5, 100} {
		if err := eng.AdvanceTo(until); err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().Windows; got != uint64(i+1) {
			t.Fatalf("after AdvanceTo(%v): %d windows, want %d", until, got, i+1)
		}
		if eng.now != until {
			t.Fatalf("Now = %v after AdvanceTo(%v)", eng.now, until)
		}
	}
}

// TestSingleProcessSelfMessages checks that the one-window shortcut keeps the
// barrier's guarantees: a self-addressed message at or after the target time
// is delivered and fires at its timestamp, and one timed before the target —
// inside the window that produced it — is reported as a lookahead violation.
func TestSingleProcessSelfMessages(t *testing.T) {
	const target = 4.0
	for _, tc := range []struct {
		name    string
		at      float64
		wantErr bool
	}{
		{"at target", target, false},
		{"after target", 6, false},
		{"before target", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &selfProc{eng: des.NewSimulation()}
			p.eng.Schedule(1, func() {
				p.outbox = append(p.outbox, Message{At: tc.at, Src: 0, Dst: 0, Seq: 1})
			})
			eng, err := New([]Process{p}, Options{Lookahead: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			err = eng.AdvanceTo(target)
			if tc.wantErr {
				if !errors.Is(err, ErrLookaheadViolated) {
					t.Fatalf("expected lookahead violation, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AdvanceTo(10); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.got, []float64{tc.at}) {
				t.Errorf("delivered at %v, want [%v]", p.got, tc.at)
			}
			if s := eng.Stats(); s.Windows != 2 || s.MergedMessages != 1 {
				t.Errorf("stats %+v, want 2 windows and 1 merged message", s)
			}
		})
	}
}
