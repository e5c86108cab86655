package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/traffic"
)

// smallConfig returns a configuration with a deliberately small state space
// (a few hundred states) that still exercises every transition type.
func smallConfig() Config {
	cfg := BaseConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 5
	cfg.Channels.ReservedPDCH = 1
	cfg.BufferSize = 8
	cfg.MaxSessions = 3
	cfg.GPRSFraction = 0.2
	return cfg
}

func solveSmall(t *testing.T, cfg Config) (*Model, *Result) {
	t.Helper()
	model, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-12, MaxIterations: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solver.Converged {
		t.Fatalf("solver did not converge: %+v", res.Solver)
	}
	return model, res
}

// table1Points is the reference encoding of Table 1, independent of the
// line description BuildGenerator uses: each state, decoded from its index,
// enumerates its outgoing transitions as jumps of a chain with one state per
// line, which names row 0 as its up and its down row.
func table1Points(m *Model) ctmc.LineFunc {
	var (
		space   = m.space
		nGSM    = space.GSMChannels()
		maxK    = space.BufferSize()
		maxM    = space.MaxSessions()
		ipp     = m.rates.IPP
		pOn     = ipp.OnProbability()
		pOff    = ipp.OffProbability()
		gsmArr  = m.gsmArrival
		gsmDep  = m.gsmDeparture
		gprsArr = m.gprsArrival
		gprsDep = m.gprsDeparture
	)
	return func(index int, emit func(to int, rate float64)) (int, int) {
		s := space.State(index)
		n, k, mm, r := s.GSMCalls, s.Packets, s.Sessions, s.OffSessions

		// (i) Incoming GSM calls and handovers.
		if n < nGSM && gsmArr > 0 {
			emit(space.Index(State{n + 1, k, mm, r}), gsmArr)
		}
		// (ii) Incoming GPRS sessions and handovers, in IPP steady state.
		if mm < maxM && gprsArr > 0 {
			emit(space.Index(State{n, k, mm + 1, r}), pOn*gprsArr)
			emit(space.Index(State{n, k, mm + 1, r + 1}), pOff*gprsArr)
		}
		// (iii) GSM calls leaving the cell.
		if n > 0 {
			emit(space.Index(State{n - 1, k, mm, r}), float64(n)*gsmDep)
		}
		// (iv) GPRS sessions leaving the cell, off with probability r/m.
		if mm > 0 {
			total := float64(mm) * gprsDep
			switch {
			case r == 0:
				emit(space.Index(State{n, k, mm - 1, 0}), total)
			case r == mm:
				emit(space.Index(State{n, k, mm - 1, r - 1}), total)
			default:
				frac := float64(r) / float64(mm)
				emit(space.Index(State{n, k, mm - 1, r - 1}), frac*total)
				emit(space.Index(State{n, k, mm - 1, r}), (1-frac)*total)
			}
		}
		// (v) Data packet arrivals while the buffer is not full.
		if k < maxK {
			if rate := m.OfferedPacketRate(s); rate > 0 {
				emit(space.Index(State{n, k + 1, mm, r}), rate)
			}
		}
		// (vi) Data packet service over min(N-n, 8k) PDCHs.
		if k > 0 {
			if rate := m.ServiceRate(s); rate > 0 {
				emit(space.Index(State{n, k - 1, mm, r}), rate)
			}
		}
		// (vii) MMPP phase changes.
		if r < mm {
			emit(space.Index(State{n, k, mm, r + 1}), float64(mm-r)*ipp.Alpha)
		}
		if r > 0 {
			emit(space.Index(State{n, k, mm, r - 1}), float64(r)*ipp.Beta)
		}
		return 0, 0
	}
}

// pointGenerator builds the model's generator from the reference encoding
// table1Points, with one state per line, so its solve is point
// Gauss–Seidel. Its one row is 0: no state steps up or down a line of one
// state.
func pointGenerator(t *testing.T, model *Model) *ctmc.Generator {
	t.Helper()
	gen, err := ctmc.NewGenerator(model.space.NumStates(), 1, []float64{0}, table1Points(model))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// marginal returns the marginal distribution of one state coordinate, read by
// of, under the steady-state vector pi.
func marginal(sp StateSpace, pi []float64, of func(State) int) []float64 {
	var dist []float64
	for idx, p := range pi {
		v := of(sp.State(idx))
		for len(dist) <= v {
			dist = append(dist, 0)
		}
		dist[v] += p
	}
	return dist
}

func TestModelSolveSmallConfig(t *testing.T) {
	model, res := solveSmall(t, smallConfig())
	var sum float64
	for i, p := range res.Pi {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("probability %v at state %d", p, i)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probability mass %v", sum)
	}
	meas := res.Measures

	if meas.CarriedDataTraffic < 0 || meas.CarriedDataTraffic > float64(model.cfg.Channels.TotalChannels) {
		t.Errorf("CDT = %v out of range", meas.CarriedDataTraffic)
	}
	if meas.PacketLossProbability < 0 || meas.PacketLossProbability > 1 {
		t.Errorf("PLP = %v out of range", meas.PacketLossProbability)
	}
	if meas.QueueingDelay < 0 {
		t.Errorf("QD = %v negative", meas.QueueingDelay)
	}
	if meas.MeanQueueLength < 0 || meas.MeanQueueLength > float64(model.cfg.BufferSize) {
		t.Errorf("MQL = %v out of range", meas.MeanQueueLength)
	}
	if meas.AverageSessions <= 0 || meas.AverageSessions > float64(model.cfg.MaxSessions) {
		t.Errorf("AGS = %v out of range", meas.AverageSessions)
	}
	if meas.CarriedVoiceTraffic <= 0 || meas.CarriedVoiceTraffic > float64(model.cfg.Channels.GSMChannels()) {
		t.Errorf("CVT = %v out of range", meas.CarriedVoiceTraffic)
	}
	if meas.GSMBlockingProbability < 0 || meas.GSMBlockingProbability > 1 {
		t.Errorf("GSM blocking = %v", meas.GSMBlockingProbability)
	}
	if meas.GPRSBlockingProbability < 0 || meas.GPRSBlockingProbability > 1 {
		t.Errorf("GPRS blocking = %v", meas.GPRSBlockingProbability)
	}
	if meas.ThroughputPackets < 0 || meas.ThroughputPerUserBits < 0 {
		t.Error("negative throughput")
	}
	// Throughput cannot exceed the offered load.
	if meas.ThroughputPackets > meas.OfferedPacketRate*(1+1e-9) {
		t.Errorf("throughput %v exceeds offered rate %v", meas.ThroughputPackets, meas.OfferedPacketRate)
	}
}

func TestGSMMarginalMatchesErlang(t *testing.T) {
	// GSM voice calls have priority over GPRS and are unaffected by the data
	// traffic, so the marginal distribution of n must coincide with the
	// M/M/c/c closed form (Eq. 2). The GTH solve does not impose it.
	model, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := solveGTH(t, model)
	want, err := model.gsmBalance.System.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	got := marginal(model.space, pi, func(s State) int { return s.GSMCalls })
	for n := range want {
		if math.Abs(got[n]-want[n]) > 1e-6 {
			t.Errorf("GSM marginal p[%d] = %v, want %v", n, got[n], want[n])
		}
	}
}

func TestSessionMarginalMatchesErlang(t *testing.T) {
	// The number of active GPRS sessions evolves independently of the buffer
	// and of GSM voice, so its marginal must match the M/M/M/M closed form
	// (Eq. 3). The GTH solve does not impose it.
	model, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pi, meas := solveGTH(t, model)
	want, err := model.gprsBalance.System.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	got := marginal(model.space, pi, func(s State) int { return s.Sessions })
	for mm := range want {
		if math.Abs(got[mm]-want[mm]) > 1e-6 {
			t.Errorf("session marginal p[%d] = %v, want %v", mm, got[mm], want[mm])
		}
	}
	// The AGS measure (closed form) must agree with the marginal mean.
	var mean float64
	for mm, p := range got {
		mean += float64(mm) * p
	}
	if math.Abs(mean-meas.AverageSessions) > 1e-6 {
		t.Errorf("AGS closed form %v vs marginal mean %v", meas.AverageSessions, mean)
	}
}

func TestProductFormMatchesPlainSolve(t *testing.T) {
	// The premise of the aggregation Solve installs: the (n, m, r) process
	// is lumpable, so the joint marginal of a solve that does not impose it,
	// GTH on the reference encoding, equals the product-form block masses.
	// Traffic model 3 has equal on and off durations; model 1 does not, so
	// it also checks the binomial phase distribution is not mirrored.
	noGPRS := smallConfig()
	noGPRS.GPRSFraction = 0
	model1 := smallConfig()
	model1.Session = traffic.Model1.Spec().Session
	for name, cfg := range map[string]Config{"small": smallConfig(), "no GPRS": noGPRS, "traffic model 1": model1} {
		t.Run(name, func(t *testing.T) {
			model, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg := model.aggregation
			pi, _ := solveGTH(t, model)
			got := make([]float64, len(agg.Mass))
			for i, p := range pi {
				got[i/(cfg.BufferSize+1)] += p
			}
			for l, want := range agg.Mass {
				if math.Abs(got[l]-want) > 1e-9 {
					t.Errorf("line %d: GTH mass %v, product form %v", l, got[l], want)
				}
			}
		})
	}
}

func TestAggregatedSolveMatchesPlainSolve(t *testing.T) {
	// Every measure agrees with GTH's to 1e-8, relative to measures above 1
	// (the bit rates are in the tens of thousands).
	model, res := solveSmall(t, smallConfig())
	_, exact := solveGTH(t, model)
	if err := measuresDiff(res.Measures, exact, 1e-8, 1e-8); err != nil {
		t.Error(err)
	}
}

func TestSolveConcurrentUse(t *testing.T) {
	// Concurrent solves share the model's aggregation, which the solver only
	// reads; every solve must return the same distribution.
	model, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const solves = 4
	results := make([]*Result, solves)
	errs := make([]error, solves)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = model.Solve(ctmc.SolveOptions{Tolerance: 1e-12})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(res.Pi, results[0].Pi) {
			t.Errorf("solve %d returned a different distribution", i)
		}
	}
}

func TestQueueMarginalSumsToOne(t *testing.T) {
	model, res := solveSmall(t, smallConfig())
	dist := marginal(model.space, res.Pi, func(s State) int { return s.Packets })
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("queue marginal sums to %v", sum)
	}
}

func TestNoGPRSTrafficMeansNoDataMeasures(t *testing.T) {
	cfg := smallConfig()
	cfg.GPRSFraction = 0
	model, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-12, MaxIterations: 50000})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Measures
	if m.CarriedDataTraffic > 1e-9 {
		t.Errorf("CDT = %v with no GPRS users", m.CarriedDataTraffic)
	}
	if m.OfferedPacketRate > 1e-9 || m.ThroughputPackets > 1e-9 {
		t.Errorf("data traffic measures should vanish, got offered=%v throughput=%v",
			m.OfferedPacketRate, m.ThroughputPackets)
	}
	if m.AverageSessions > 1e-12 || m.GPRSHandoverRate > 1e-12 {
		t.Errorf("no sessions expected, got AGS=%v handover=%v", m.AverageSessions, m.GPRSHandoverRate)
	}
	if m.CarriedVoiceTraffic <= 0 {
		t.Error("voice traffic should still be carried")
	}
}

func TestFlowControlReducesLoss(t *testing.T) {
	// Heavier traffic on a tiny buffer: with flow control (eta = 0.7) the
	// loss probability must not exceed the one without flow control
	// (eta = 1.0), mirroring Fig. 5.
	base := smallConfig()
	base.TotalCallRate = 2.0
	base.GPRSFraction = 0.5
	base.BufferSize = 6

	withFC := base
	withFC.FlowControlThreshold = 0.7
	_, resFC := solveSmall(t, withFC)

	withoutFC := base
	withoutFC.FlowControlThreshold = 1.0
	_, resNoFC := solveSmall(t, withoutFC)

	if resFC.Measures.PacketLossProbability > resNoFC.Measures.PacketLossProbability+1e-9 {
		t.Errorf("flow control increased loss: %v vs %v",
			resFC.Measures.PacketLossProbability, resNoFC.Measures.PacketLossProbability)
	}
	if resNoFC.Measures.PacketLossProbability <= 0 {
		t.Error("expected positive loss probability without flow control under heavy load")
	}
}

func TestMoreReservedPDCHsReduceDelay(t *testing.T) {
	// Reserving more PDCHs decreases the queueing delay (Fig. 9).
	base := smallConfig()
	base.TotalCallRate = 1.5
	base.GPRSFraction = 0.4

	one := base
	one.Channels.ReservedPDCH = 1
	_, resOne := solveSmall(t, one)

	three := base
	three.Channels.ReservedPDCH = 3
	_, resThree := solveSmall(t, three)

	if resThree.Measures.QueueingDelay > resOne.Measures.QueueingDelay+1e-9 {
		t.Errorf("more reserved PDCHs should not increase delay: %v vs %v",
			resThree.Measures.QueueingDelay, resOne.Measures.QueueingDelay)
	}
	if resThree.Measures.PacketLossProbability > resOne.Measures.PacketLossProbability+1e-9 {
		t.Errorf("more reserved PDCHs should not increase loss: %v vs %v",
			resThree.Measures.PacketLossProbability, resOne.Measures.PacketLossProbability)
	}
}

func TestTransitionRatesMatchTable1(t *testing.T) {
	cfg := smallConfig()
	model, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := model.space
	rates := model.Rates()
	tf := table1Points(model)

	collect := func(s State) map[State]float64 {
		out := make(map[State]float64)
		tf(sp.Index(s), func(to int, rate float64) {
			out[sp.State(to)] += rate
		})
		return out
	}

	// From the empty state, only arrivals can happen.
	empty := State{}
	out := collect(empty)
	gsmArr := rates.NewGSMCallRate + model.gsmBalance.HandoverRate
	gprsArr := rates.NewGPRSSessionRate + model.gprsBalance.HandoverRate
	pOn := rates.IPP.OnProbability()
	if got := out[State{GSMCalls: 1}]; math.Abs(got-gsmArr) > 1e-12 {
		t.Errorf("GSM arrival rate = %v, want %v", got, gsmArr)
	}
	if got := out[State{Sessions: 1}]; math.Abs(got-pOn*gprsArr) > 1e-12 {
		t.Errorf("GPRS arrival (on) = %v, want %v", got, pOn*gprsArr)
	}
	if got := out[State{Sessions: 1, OffSessions: 1}]; math.Abs(got-(1-pOn)*gprsArr) > 1e-12 {
		t.Errorf("GPRS arrival (off) = %v, want %v", got, (1-pOn)*gprsArr)
	}
	if len(out) != 3 {
		t.Errorf("empty state should have exactly 3 outgoing transitions, got %d: %v", len(out), out)
	}

	// A state with full GSM occupancy cannot admit another GSM call.
	full := State{GSMCalls: sp.GSMChannels()}
	if _, ok := collect(full)[State{GSMCalls: sp.GSMChannels() + 1}]; ok {
		t.Error("GSM call admitted beyond N_GSM")
	}

	// Packet service uses min(N-n, 8k) PDCHs.
	s := State{GSMCalls: 2, Packets: 1, Sessions: 2, OffSessions: 1}
	out = collect(s)
	wantService := float64(model.UsablePDCH(s)) * rates.PacketServiceRate
	if got := out[State{GSMCalls: 2, Packets: 0, Sessions: 2, OffSessions: 1}]; math.Abs(got-wantService) > 1e-12 {
		t.Errorf("service rate = %v, want %v", got, wantService)
	}
	// Packet arrivals occur at (m-r) * lambda_packet below the threshold.
	wantArrival := float64(s.Sessions-s.OffSessions) * rates.IPP.Lambda
	if got := out[State{GSMCalls: 2, Packets: 2, Sessions: 2, OffSessions: 1}]; math.Abs(got-wantArrival) > 1e-12 {
		t.Errorf("packet arrival rate = %v, want %v", got, wantArrival)
	}
	// MMPP phase changes.
	if got := out[State{GSMCalls: 2, Packets: 1, Sessions: 2, OffSessions: 2}]; math.Abs(got-float64(1)*rates.IPP.Alpha) > 1e-12 {
		t.Errorf("on->off rate = %v, want %v", got, rates.IPP.Alpha)
	}
	if got := out[State{GSMCalls: 2, Packets: 1, Sessions: 2, OffSessions: 0}]; math.Abs(got-float64(1)*rates.IPP.Beta) > 1e-12 {
		t.Errorf("off->on rate = %v, want %v", got, rates.IPP.Beta)
	}

	// GPRS departure from a mixed state splits r/m vs (m-r)/m.
	dep := State{Sessions: 2, OffSessions: 1}
	out = collect(dep)
	gprsDep := rates.GPRSServiceRate + rates.GPRSHandoverRate
	wantOffLeave := 0.5 * 2 * gprsDep
	if got := out[State{Sessions: 1, OffSessions: 0}]; math.Abs(got-wantOffLeave) > 1e-12 {
		t.Errorf("departure (off leaves) = %v, want %v", got, wantOffLeave)
	}
	if got := out[State{Sessions: 1, OffSessions: 1}]; math.Abs(got-wantOffLeave) > 1e-12 {
		t.Errorf("departure (on leaves) = %v, want %v", got, wantOffLeave)
	}
}

func TestOfferedRateAboveThresholdIsLimited(t *testing.T) {
	cfg := smallConfig()
	cfg.FlowControlThreshold = 0.5
	model, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := model.Rates()
	// Above the threshold (k > 0.5*8 = 4) the offered rate is capped at the
	// service rate of the state.
	s := State{GSMCalls: 4, Packets: 7, Sessions: 3, OffSessions: 0}
	capRate := model.ServiceRate(s)
	uncapped := 3 * rates.IPP.Lambda
	want := math.Min(capRate, uncapped)
	if got := model.OfferedPacketRate(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("offered rate above threshold = %v, want %v", got, want)
	}
	// Below the threshold the full MMPP rate is offered.
	s = State{GSMCalls: 4, Packets: 2, Sessions: 3, OffSessions: 0}
	if got := model.OfferedPacketRate(s); math.Abs(got-uncapped) > 1e-12 {
		t.Errorf("offered rate below threshold = %v, want %v", got, uncapped)
	}
	// All sessions off: no arrivals.
	s = State{Sessions: 2, OffSessions: 2}
	if model.OfferedPacketRate(s) != 0 {
		t.Error("offered rate should be zero when all sessions are off")
	}
}

func TestSolveRejectsUnconvergedSolution(t *testing.T) {
	model, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Solve(ctmc.SolveOptions{MaxIterations: 5})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("Solve after 5 sweeps: got %v, want ErrNotConverged", err)
	}
	if res != nil {
		t.Errorf("Solve returned a result with the error: %+v", res.Solver)
	}
}

func TestGeneratorResidualSmall(t *testing.T) {
	model, res := solveSmall(t, smallConfig())
	gen, err := model.BuildGenerator()
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumStates() != model.space.NumStates() {
		t.Errorf("generator states %d != space %d", gen.NumStates(), model.space.NumStates())
	}
	resid, err := gen.Residual(res.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if resid > 1e-8 {
		t.Errorf("residual = %v", resid)
	}
}

func TestMeasuresFromRejectsWrongLength(t *testing.T) {
	model, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.MeasuresFrom([]float64{1}); err == nil {
		t.Error("expected error for wrong-length vector")
	}
}

func TestMeasuresFromWalkMatchesIndexLoop(t *testing.T) {
	// MeasuresFrom walks the states in index order; summed in the same
	// order, its sums must equal bit for bit those of a loop that inverts
	// every index.
	for name, cfg := range map[string]Config{"small": smallConfig(), "Quick Fig. 6": quickFig6Config(0.05, 0.6)} {
		model, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		var cdt, offered, queueLen float64
		for idx, p := range res.Pi {
			if p == 0 {
				continue
			}
			s := model.space.State(idx)
			cdt += p * float64(model.UsablePDCH(s))
			offered += p * model.OfferedPacketRate(s)
			queueLen += p * float64(s.Packets)
		}
		got := res.Measures
		if got.CarriedDataTraffic != cdt || got.OfferedPacketRate != offered || got.MeanQueueLength != queueLen {
			t.Errorf("%s: CDT, offered rate, queue length %v, %v, %v; index loop %v, %v, %v", name,
				got.CarriedDataTraffic, got.OfferedPacketRate, got.MeanQueueLength, cdt, offered, queueLen)
		}
	}
}

func TestHigherLoadIncreasesVoiceBlocking(t *testing.T) {
	low := smallConfig()
	low.TotalCallRate = 0.05
	_, resLow := solveSmall(t, low)

	high := smallConfig()
	high.TotalCallRate = 2.0
	_, resHigh := solveSmall(t, high)

	if resHigh.Measures.GSMBlockingProbability <= resLow.Measures.GSMBlockingProbability {
		t.Errorf("blocking should grow with load: %v vs %v",
			resHigh.Measures.GSMBlockingProbability, resLow.Measures.GSMBlockingProbability)
	}
	if resHigh.Measures.CarriedVoiceTraffic <= resLow.Measures.CarriedVoiceTraffic {
		t.Errorf("carried voice traffic should grow with load: %v vs %v",
			resHigh.Measures.CarriedVoiceTraffic, resLow.Measures.CarriedVoiceTraffic)
	}
}

// lineConfigs are the configurations on which the line generator is
// checked against the point generator: three state-space shapes, every
// Quick Fig. 6 point, edge cases of Table 1 and unequal MMPP rates.
func lineConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, dims := range [][3]int{{5, 8, 3}, {3, 4, 6}, {8, 1, 2}} {
		cfg := smallConfig()
		cfg.Channels.TotalChannels, cfg.BufferSize, cfg.MaxSessions = dims[0], dims[1], dims[2]
		cfgs[fmt.Sprintf("dims %v", dims)] = cfg
	}
	for _, p := range quickFig6Points() {
		cfgs[fmt.Sprintf("Quick Fig. 6 %v", p)] = quickFig6Config(p[0], p[1])
	}
	noGPRS := smallConfig()
	noGPRS.GPRSFraction = 0
	cfgs["no GPRS"] = noGPRS
	noReserved := smallConfig()
	noReserved.Channels.ReservedPDCH = 0
	cfgs["no reserved PDCH"] = noReserved
	reserved := smallConfig()
	reserved.Channels.ReservedPDCH = 3
	cfgs["3 reserved PDCHs"] = reserved
	capped := smallConfig()
	capped.TotalCallRate, capped.GPRSFraction, capped.FlowControlThreshold = 2, 0.5, 0.25
	cfgs["arrival cap binds"] = capped
	// Traffic model 3 has equal on and off rates; model 1 does not, so it
	// tells the MMPP phase changes (vii) apart.
	model1 := smallConfig()
	model1.Session = traffic.Model1.Spec().Session
	cfgs["traffic model 1"] = model1
	return cfgs
}

func TestLineGeneratorMatchesPointGenerator(t *testing.T) {
	// Two separate encodings of Table 1: the line description BuildGenerator
	// uses and the per-state reference table1Points. The line generator must
	// be the point generator's matrix: the same transitions, and the same
	// pi*Q for any pi.
	capBinds := false
	for name, cfg := range lineConfigs() {
		model, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == "arrival cap binds" {
			s := State{GSMCalls: model.space.GSMChannels(), Packets: cfg.BufferSize, Sessions: cfg.MaxSessions}
			capBinds = model.OfferedPacketRate(s) < float64(cfg.MaxSessions)*model.rates.IPP.Lambda
		}
		lines, err := model.BuildGenerator()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		points := pointGenerator(t, model)
		if lines.NumTransitions() != points.NumTransitions() {
			t.Errorf("%s: %d transitions in lines, %d in points", name, lines.NumTransitions(), points.NumTransitions())
		}
		rng := rand.New(rand.NewSource(1))
		pi := make([]float64, model.space.NumStates())
		for i := range pi {
			pi[i] = 0.1 + rng.Float64()
		}
		got, err := lines.Residual(pi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := points.Residual(pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-15*want {
			t.Errorf("%s: residual %v with lines, %v with points", name, got, want)
		}
	}
	if !capBinds {
		t.Error("the arrival cap does not bind in the capped configuration")
	}
}

// quickFig6Config is the model configuration of one Quick Fig. 6 point: a
// scaled-down traffic-model-3 cell with 10 channels, a 30-packet buffer and
// at most 10 sessions.
func quickFig6Config(fraction, rate float64) Config {
	cfg := BaseConfig(traffic.Model3, rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = min(cfg.MaxSessions, 10)
	cfg.GPRSFraction = fraction
	return cfg
}

// pointGaussSeidel solves the model's chain, as the reference encoding
// table1Points describes it, by plain point Gauss–Seidel from pi, which it
// overwrites: without the product-form aggregation, line solves or
// relaxation of Solve, and with none of ctmc's code. Each sweep sets every
// state, in index order, to its inflow over its outflow and normalizes the
// vector. It stops once the L1 changes of the last ten sweeps sum to at most
// tol and pi*Q is at most tol times the largest outflow in every state, and
// returns the number of sweeps.
func pointGaussSeidel(t *testing.T, model *Model, pi []float64, tol float64) int {
	t.Helper()
	type arc struct {
		from int
		rate float64
	}
	in := make([][]arc, len(pi))
	out := make([]float64, len(pi))
	line := table1Points(model)
	for i := range pi {
		line(i, func(to int, rate float64) {
			in[to] = append(in[to], arc{i, rate})
			out[i] += rate
		})
	}
	inflow := func(j int) float64 {
		var sum float64
		for _, a := range in[j] {
			sum += a.rate * pi[a.from]
		}
		return sum
	}
	var changes [10]float64
	for sweep := 1; sweep <= 100000; sweep++ {
		var change, total float64
		for j := range pi {
			x := inflow(j) / out[j]
			change += math.Abs(x - pi[j])
			pi[j] = x
			total += x
		}
		for j := range pi {
			pi[j] /= total
		}
		copy(changes[:], changes[1:])
		changes[len(changes)-1] = change + math.Abs(1-total)
		var delta float64
		for _, c := range changes {
			delta += c
		}
		if sweep < len(changes) || delta > tol {
			continue
		}
		var residual float64
		for j := range pi {
			residual = max(residual, math.Abs(inflow(j)-pi[j]*out[j]))
		}
		if residual <= tol*slices.Max(out) {
			return sweep
		}
	}
	t.Fatal("point Gauss–Seidel did not converge in 100,000 sweeps")
	return 0
}

// TestQuickFig6LineSolveMatchesPlainSolve compares Solve at tolerance 1e-6
// on two Quick Fig. 6 points with plain point Gauss–Seidel to 1e-12 (see
// pointGaussSeidel), started from Solve's distribution: point sweeps reach
// the same fixed point from any start. CDT, ATU, PLP and QD must agree to
// 1e-6 relative.
func TestQuickFig6LineSolveMatchesPlainSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("point Gauss–Seidel to 1e-12 takes seconds")
	}
	for _, point := range [][2]float64{{0.02, 0.1}, {0.10, 1.0}} {
		model, err := New(quickFig6Config(point[0], point[1]))
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		pi := slices.Clone(res.Pi)
		sweeps := pointGaussSeidel(t, model, pi, 1e-12)
		plain, err := model.MeasuresFrom(pi)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"CDT", res.Measures.CarriedDataTraffic, plain.CarriedDataTraffic},
			{"ATU", res.Measures.ThroughputPerUserBits, plain.ThroughputPerUserBits},
			{"PLP", res.Measures.PacketLossProbability, plain.PacketLossProbability},
			{"QD", res.Measures.QueueingDelay, plain.QueueingDelay},
		} {
			if math.Abs(m.got-m.want) > 1e-6*math.Abs(m.want) {
				t.Errorf("point %v: %s %v at tolerance 1e-6, plain solve %v", point, m.name, m.got, m.want)
			}
		}
		t.Logf("point %v: %d point sweeps", point, sweeps)
	}
}

// quickFig6Points are the (GPRS fraction, call rate) points of Quick Fig. 6.
func quickFig6Points() [][2]float64 {
	var pts [][2]float64
	for _, fraction := range []float64{0.02, 0.05, 0.10} {
		for _, rate := range []float64{0.1, 0.3, 0.6, 1.0} {
			pts = append(pts, [2]float64{fraction, rate})
		}
	}
	return pts
}

func TestQuickFig6SweepBudget(t *testing.T) {
	// Line sweeps solve each (n, m, r) block's buffer distribution exactly,
	// so the twelve Quick Fig. 6 solutions take 630 sweeps in all from lines
	// that start evenly spread (point Gauss–Seidel under the same aggregation
	// took 2,770). Each line starting at its own birth–death equilibrium
	// takes that to 540; the colour order that solves four lines at a time
	// gives the iterates of index order, so it keeps that count. Relaxing
	// the sweeps by an ω read from each solve's own contraction rate, and
	// testing convergence after every sweep, took it to 358. The plain rate
	// read at sweep 5 is still climbing, so reading ω a second time, from
	// three relaxed sweeps by Young's relation, takes it to 320, at
	// ω ≈ 1.24–1.35. Each point has 175,428 transitions.
	const budget, transitions = 340, 175428
	total := 0
	for _, p := range quickFig6Points() {
		model, err := New(quickFig6Config(p[0], p[1]))
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solver.Converged {
			t.Fatalf("%v did not converge in %d sweeps", p, res.Solver.Iterations)
		}
		if res.Solver.Transitions != transitions {
			t.Errorf("%v has %d transitions, want %d", p, res.Solver.Transitions, transitions)
		}
		total += res.Solver.Iterations
	}
	if total > budget {
		t.Errorf("Quick Fig. 6 took %d sweeps, budget %d", total, budget)
	}
	t.Logf("Quick Fig. 6 took %d sweeps", total)
}

// TestTable2SweepBudget solves the Table 2 base points of traffic model 3
// (466,620 states) at 0.5 and 1.0 calls/s to 1e-6, as gprs-analytic does.
// With ω read once, from the plain sweeps, they took 122 and 178 sweeps;
// reading it again from the relaxed sweeps takes them to 101 and 136.
func TestTable2SweepBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a Table 2 point takes about a second")
	}
	for _, c := range []struct {
		rate   float64
		budget int
	}{{0.5, 110}, {1.0, 150}} {
		model, err := New(BaseConfig(traffic.Model3, c.rate))
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Solve(ctmc.SolveOptions{Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		sol := res.Solver
		if !sol.Converged {
			t.Errorf("rate %v did not converge in %d sweeps", c.rate, sol.Iterations)
		}
		if sol.Iterations > c.budget {
			t.Errorf("rate %v took %d sweeps, budget %d", c.rate, sol.Iterations, c.budget)
		}
		t.Logf("rate %v: %d sweeps at ω %.3g", c.rate, sol.Iterations, sol.Relaxation)
	}
}
