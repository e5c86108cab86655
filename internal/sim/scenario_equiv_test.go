// Cross-engine equivalence of the workload-scenario layer: for every
// built-in scenario generator the serial single-calendar engine and the
// sharded engine must produce bit-identical results (the determinism contract
// of internal/shard extends to heterogeneous, time-varying load), and the
// uniform scenario must reproduce the profile-less simulator exactly. The
// tests live in an external test package because internal/scenario imports
// internal/sim.
package sim_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// scenarioQuickConfig returns a short heterogeneous-load run on the given
// preset cluster size.
func scenarioQuickConfig(t *testing.T, cells int) sim.Config {
	t.Helper()
	topo, err := cluster.Preset(cells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 200
	cfg.MeasurementSec = 600
	cfg.Batches = 5
	cfg.Seed = 7
	return cfg
}

func mustRun(t *testing.T, cfg sim.Config, shards int) sim.Results {
	t.Helper()
	res, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenariosSerialShardedBitIdentical is the acceptance contract of the
// scenario layer: for every built-in scenario — the pure rate presets and the
// mobility presets (highway, hotspot-pedestrian) alike — serial and sharded
// runs of the same configuration are bit-identical, per-cell measures and
// handover-flow counters included. The table crosses every preset with the
// {7, 19}-cell clusters and the {1, 4} engine layouts (1 is the serial
// single-calendar engine, the reference the sharded runs are compared
// against); the full run adds a 2-shard layout so uneven cell groupings stay
// covered. -short restricts the table to the seven-cell cluster.
func TestScenariosSerialShardedBitIdentical(t *testing.T) {
	sizes := []int{7}
	shardCounts := []int{4}
	if !testing.Short() {
		sizes = append(sizes, 19)
		shardCounts = append(shardCounts, 2)
	}
	for _, name := range scenario.Names() {
		spec, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range sizes {
			t.Run(fmt.Sprintf("%s/%dcells", name, cells), func(t *testing.T) {
				cfg := scenarioQuickConfig(t, cells)
				if _, err := scenario.Apply(&cfg, spec); err != nil {
					t.Fatal(err)
				}
				if spec.Mobility != nil && cfg.Mobility == nil {
					t.Fatalf("%s: Apply did not install the mobility profile", name)
				}
				serial := mustRun(t, cfg, 1)
				if serial.Events == 0 {
					t.Fatalf("%s on %d cells: degenerate run", name, cells)
				}
				if got := len(serial.PerCell); got != cells {
					t.Fatalf("%s on %d cells: %d per-cell reports", name, cells, got)
				}
				for _, shards := range shardCounts {
					sharded := mustRun(t, cfg, shards)
					if !reflect.DeepEqual(sharded, serial) {
						t.Errorf("%s on %d cells: sharded (%d shards) differs from serial engine", name, cells, shards)
					}
				}
			})
		}
	}
}

// digestFloat renders a float through its shortest representation that parses
// back to exactly the same bits, so a digest over it pins the value bit for
// bit.
func digestFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func digestInterval(b *strings.Builder, iv stats.Interval) {
	b.WriteString(digestFloat(iv.Mean))
	b.WriteByte('|')
	b.WriteString(digestFloat(iv.HalfWidth))
	b.WriteByte('|')
	b.WriteString(digestFloat(iv.Level))
	b.WriteByte('|')
	fmt.Fprintf(b, "%d;", iv.Batches)
}

// seedDigest condenses the seed-era fields of a Results value into a short
// hex digest: every measure and counter the pre-policy engines reported,
// serialized canonically field by field (floats through their shortest exact
// representation). Unlike a %#v digest, the canonical form is stable under
// pure schema growth — adding new CellMeasures fields does not move these
// digests, so a nil-policy run must keep reproducing the pre-policy values.
// The policy counters are pinned separately by policyDigest.
func seedDigest(r sim.Results) string {
	var b strings.Builder
	for _, iv := range []stats.Interval{
		r.CarriedDataTraffic, r.PacketLossProbability, r.QueueingDelay,
		r.ThroughputBits, r.ThroughputPerUserBits, r.AverageSessions,
		r.CarriedVoiceTraffic, r.GSMBlockingProbability, r.GPRSBlockingProbability,
		r.MeanQueueLength,
	} {
		digestInterval(&b, iv)
	}
	fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d|", r.PacketsOffered, r.PacketsLost,
		r.PacketsDelivered, r.HandoversIn, r.HandoversOut, r.TCPTimeouts, r.TCPFastRecovers)
	b.WriteString(digestFloat(r.SimulatedSec))
	fmt.Fprintf(&b, "|%d\n", r.Events)
	for _, m := range r.PerCell {
		fmt.Fprintf(&b, "%d|", m.Cell)
		for _, v := range []float64{
			m.CarriedDataTraffic, m.MeanQueueLength, m.CarriedVoiceTraffic,
			m.AverageSessions, m.PacketLossProbability, m.QueueingDelaySec,
			m.ThroughputBits, m.GSMBlocking, m.GPRSBlocking,
		} {
			b.WriteString(digestFloat(v))
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			m.PacketsOffered, m.PacketsLost, m.PacketsDelivered,
			m.HandoversIn, m.HandoversOut, m.VoiceHandoversOut,
			m.SessionHandoversOut, m.HandoverArrivals, m.HandoverFailures)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// policyDigest extends seedDigest with the per-cell admission-policy counters,
// pinning policy runs bit for bit (the seed-era fields and the policy ledger
// together).
func policyDigest(r sim.Results) string {
	var b strings.Builder
	b.WriteString(seedDigest(r))
	for _, m := range r.PerCell {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d\n", m.Cell,
			m.GuardBlockedCalls, m.HandoversQueued, m.HandoverQueueServed,
			m.HandoverQueueExpired, m.HandoverRetries, m.HandoverTransitEnds)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// goldenDigests pins the exact seed results of scenarioQuickConfig runs bit
// for bit. The digests were re-baselined when packet delivery moved onto its
// own drain tick (every busy period gained one radio-tick event, so Events —
// a digested field — shifted everywhere); within that baseline they are
// identical across shard counts and probe arming, which is the invariant the
// suites below enforce. The busyhour ramp
// steps after the quick config's horizon and the uniform scenario is the
// identity, so their digests legitimately equal the baseline's — the table
// keeps them as separate rows so a future config change that moves the
// horizon shows up. The trace and mmpp-bursty rows pin the empirical-traffic
// layer: a periodic measured replay and a pre-sampled MMPP burst pattern,
// both crossing several rate changes inside the quick horizon. The table is
// shared by TestGoldenResultDigests (probes off) and
// TestGoldenResultDigestsProbesArmed (probes on): both columns must
// reproduce the same digests.
var goldenDigests = []struct {
	name  string
	cells int
	want  string
}{
	{"baseline", 7, "0646231e09b39bea"},
	{"busyhour", 7, "0646231e09b39bea"},
	{"gradient", 7, "7b1576d22ed88d18"},
	{"highway", 7, "083ab3f1cdad85c4"},
	{"hotspot", 7, "084ee30fa9b655c7"},
	{"hotspot-busyhour", 7, "084ee30fa9b655c7"},
	{"hotspot-pedestrian", 7, "2ad91a04c8462566"},
	{"mmpp-bursty", 7, "3fa6c6d847f0b328"},
	{"trace", 7, "b1947f3946bba178"},
	{"uniform", 7, "0646231e09b39bea"},
	{"baseline", 19, "6728a44cb6d51b4a"},
	{"busyhour", 19, "6728a44cb6d51b4a"},
	{"gradient", 19, "b83cf8bd4debdd68"},
	{"highway", 19, "fac007f898b72ca4"},
	{"hotspot", 19, "8bf4bdcc625bed54"},
	{"hotspot-busyhour", 19, "8bf4bdcc625bed54"},
	{"hotspot-pedestrian", 19, "3f04884a08ee7130"},
	{"mmpp-bursty", 19, "82b353ae86012c3e"},
	{"trace", 19, "6b00dc56f5b013c0"},
	{"uniform", 19, "6728a44cb6d51b4a"},
}

// goldenConfig assembles the pinned run of one goldenDigests row.
func goldenConfig(t *testing.T, name string, cells int) sim.Config {
	t.Helper()
	cfg := scenarioQuickConfig(t, cells)
	if name != "baseline" {
		spec, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Apply(&cfg, spec); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// TestGoldenResultDigests pins the exact seed results bit for bit: any
// refactor that changes a single draw, merge order, or accumulation anywhere
// in the engine stack fails this test. Every scenario preset (plus the
// profile-less baseline) runs on both the serial and the 4-shard engine —
// both paths must reproduce the same golden digest. -short restricts the
// table to the seven-cell cluster.
func TestGoldenResultDigests(t *testing.T) {
	for _, g := range goldenDigests {
		if g.cells != 7 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("%s/%dcells", g.name, g.cells), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				res := mustRun(t, goldenConfig(t, g.name, g.cells), shards)
				if got := seedDigest(res); got != g.want {
					t.Errorf("%d shard(s): digest %s, want seed digest %s", shards, got, g.want)
				}
			}
		})
	}
}

// TestUniformScenarioReproducesBaseline pins the regression contract: the
// uniform scenario is the paper's symmetric load, so installing it must not
// change a single bit of the results relative to a profile-less run (the
// exact numbers of the pre-scenario simulator).
func TestUniformScenarioReproducesBaseline(t *testing.T) {
	for _, cells := range []int{7, 19} {
		if cells != 7 && testing.Short() {
			continue
		}
		base := scenarioQuickConfig(t, cells)
		baseline := mustRun(t, base, 1)

		withScenario := scenarioQuickConfig(t, cells)
		spec, err := scenario.Preset(scenario.Uniform)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Apply(&withScenario, spec); err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, withScenario, 1)
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("%d cells: uniform scenario perturbed the baseline results", cells)
		}
		gotSharded := mustRun(t, withScenario, 3)
		if !reflect.DeepEqual(gotSharded, baseline) {
			t.Errorf("%d cells: sharded uniform scenario perturbed the baseline results", cells)
		}
	}
}

// TestConstantTraceReproducesUniform pins the empirical layer's identity
// contract: a trace whose measured rates are all (bitwise) equal normalizes
// to scale exactly 1 and coalesces to the constant schedule, so replaying it
// must reproduce the profile-less baseline — the paper's symmetric load —
// bit for bit, on the serial and the sharded engine alike. The trace's
// absolute rate level is deliberately arbitrary (2.5 of whatever the
// measured unit was): normalization is what makes it the baseline.
func TestConstantTraceReproducesUniform(t *testing.T) {
	for _, cells := range []int{7, 19} {
		if cells != 7 && testing.Short() {
			continue
		}
		baseline := mustRun(t, scenarioQuickConfig(t, cells), 1)

		cfg := scenarioQuickConfig(t, cells)
		flat := scenario.Spec{Temporal: scenario.Temporal{Kind: scenario.Trace,
			Rows: []scenario.TraceRow{
				{AtSec: 0, RatePerSec: 2.5},
				{AtSec: 250, RatePerSec: 2.5},
				{AtSec: 700, RatePerSec: 2.5},
			}}}
		if _, err := scenario.Apply(&cfg, flat); err != nil {
			t.Fatal(err)
		}
		if got := mustRun(t, cfg, 1); !reflect.DeepEqual(got, baseline) {
			t.Errorf("%d cells: constant-rate trace perturbed the baseline results", cells)
		}
		if got := mustRun(t, cfg, 3); !reflect.DeepEqual(got, baseline) {
			t.Errorf("%d cells: sharded constant-rate trace perturbed the baseline results", cells)
		}
	}
}

// TestTraceMMPPShardedBitIdentity is the full-fidelity equivalence matrix of
// the empirical-traffic layer, named so the CI race job can select it: the
// trace replay and the MMPP burst pattern — the presets whose schedules are
// generated rather than hand-written — must stay bit-identical between the
// serial engine and the {1, 4}-shard layouts on both cluster sizes. -short
// keeps the seven-cell column only.
func TestTraceMMPPShardedBitIdentity(t *testing.T) {
	for _, name := range []string{"trace", "mmpp-bursty"} {
		spec, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range []int{7, 19} {
			if cells != 7 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dcells", name, cells), func(t *testing.T) {
				cfg := scenarioQuickConfig(t, cells)
				if _, err := scenario.Apply(&cfg, spec); err != nil {
					t.Fatal(err)
				}
				serial := mustRun(t, cfg, 1)
				if serial.Events == 0 || serial.PacketsOffered == 0 {
					t.Fatalf("%s on %d cells: degenerate run", name, cells)
				}
				baseline := mustRun(t, scenarioQuickConfig(t, cells), 1)
				if reflect.DeepEqual(serial, baseline) {
					t.Errorf("%s should modulate the sample path away from the baseline", name)
				}
				for _, shards := range []int{1, 4} {
					if sharded := mustRun(t, cfg, shards); !reflect.DeepEqual(sharded, serial) {
						t.Errorf("%s on %d cells: %d-shard run differs from serial engine", name, cells, shards)
					}
				}
			})
		}
	}
}

// TestUniformMobilityReproducesBaseline pins the mobility regression
// contract: a uniform mobility profile with multiplier 1.0 is the paper's
// single dwell time per service, so installing it must not change a single
// bit of the results relative to a run without any mobility profile — the
// dwell sampler draws exactly the same variates (see cell.armDwell). Checked
// on both engines and both cluster sizes.
func TestUniformMobilityReproducesBaseline(t *testing.T) {
	for _, cells := range []int{7, 19} {
		if cells != 7 && testing.Short() {
			continue
		}
		baseline := mustRun(t, scenarioQuickConfig(t, cells), 1)

		withMobility := scenarioQuickConfig(t, cells)
		mob := scenario.Mobility{Spatial: scenario.Spatial{Kind: scenario.Uniform}}
		prof, err := mob.Compile(withMobility.Topology)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range prof.Weights() {
			if w != 1 {
				t.Fatalf("uniform mobility weight in cell %d is %v, want exactly 1", i, w)
			}
		}
		withMobility.Mobility = prof
		if got := mustRun(t, withMobility, 1); !reflect.DeepEqual(got, baseline) {
			t.Errorf("%d cells: uniform mobility profile perturbed the baseline results", cells)
		}
		if got := mustRun(t, withMobility, 4); !reflect.DeepEqual(got, baseline) {
			t.Errorf("%d cells: sharded uniform mobility perturbed the baseline results", cells)
		}
	}
}

// TestMobilityChangesSamplePath is the counterpart sanity check: a non-unit
// mobility profile must actually change the draws (shorter corridor dwells),
// and the changed sample path must still be engine-independent.
func TestMobilityChangesSamplePath(t *testing.T) {
	baseline := mustRun(t, scenarioQuickConfig(t, 7), 1)
	cfg := scenarioQuickConfig(t, 7)
	spec, err := scenario.Preset("highway")
	if err != nil {
		t.Fatal(err)
	}
	mob := *spec.Mobility
	prof, err := mob.Compile(cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mobility = prof
	fast := mustRun(t, cfg, 1)
	if reflect.DeepEqual(fast, baseline) {
		t.Error("a 0.25x corridor dwell profile should change the sample path")
	}
	if fast.HandoversOut <= baseline.HandoversOut {
		t.Errorf("faster mid-cell users should hand over more: %d vs baseline %d",
			fast.HandoversOut, baseline.HandoversOut)
	}
	if sharded := mustRun(t, cfg, 3); !reflect.DeepEqual(sharded, fast) {
		t.Error("mobility profile must stay engine-independent")
	}
}

// TestHighwaySkewsHandoverFlow checks that the highway preset's mobility
// shape shows up where it should: corridor cells emit outbound handovers at
// a higher per-cell rate than off-corridor cells, against a load-only
// control run (same corridor rates, uniform dwell) whose flow is nearly
// flat by comparison.
func TestHighwaySkewsHandoverFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("19-cell comparison runs skipped in -short mode")
	}
	spec, err := scenario.Preset("highway")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioQuickConfig(t, 19)
	cfg.MeasurementSec = 1500
	if _, err := scenario.Apply(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg, 4)

	loadOnly := spec
	loadOnly.Mobility = nil
	ctrl := scenarioQuickConfig(t, 19)
	ctrl.MeasurementSec = 1500
	if _, err := scenario.Apply(&ctrl, loadOnly); err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, ctrl, 4)

	dist := cfg.Topology.AxisDistances(spec.Spatial.Center, spec.Spatial.Axis)
	outPerGroup := func(r sim.Results) (corridor, off float64) {
		var nc, noff int
		for i, m := range r.PerCell {
			if dist[i] == 0 {
				corridor += float64(m.HandoversOut)
				nc++
			} else {
				off += float64(m.HandoversOut)
				noff++
			}
		}
		return corridor / float64(nc), off / float64(noff)
	}
	corridor, off := outPerGroup(res)
	if corridor <= 1.5*off {
		t.Errorf("corridor cells should hand over far more often: corridor %.1f, off-corridor %.1f", corridor, off)
	}
	baseCorridor, baseOff := outPerGroup(base)
	if skew, baseSkew := corridor/off, baseCorridor/baseOff; skew <= baseSkew {
		t.Errorf("mobility should amplify the flow skew beyond the load-only run: %.2f vs %.2f", skew, baseSkew)
	}
	for _, m := range res.PerCell {
		if m.HandoversOut != m.VoiceHandoversOut+m.SessionHandoversOut {
			t.Errorf("cell %d: outbound split %d+%d does not sum to %d",
				m.Cell, m.VoiceHandoversOut, m.SessionHandoversOut, m.HandoversOut)
		}
	}
}

// TestMismatchedMobilityProfileRejected mirrors the rate-profile guard: a
// mobility profile compiled for a smaller cluster than the configured
// topology must be refused by both engines.
func TestMismatchedMobilityProfileRejected(t *testing.T) {
	mob := scenario.Mobility{Spatial: scenario.Spatial{Kind: scenario.Hotspot, Peak: 2, Decay: 1}}
	prof, err := mob.Compile(cluster.NewHexCluster())
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioQuickConfig(t, 19)
	cfg.Mobility = prof
	if _, err := sim.New(cfg); err == nil {
		t.Error("a 7-cell mobility profile on a 19-cell topology should be rejected")
	}
	if _, err := sim.NewSharded(cfg, sim.ShardedOptions{Shards: 2}); err == nil {
		t.Error("the sharded engine should reject the mismatch too")
	}
}

// TestHotspotShapesPerCellLoad checks that the hotspot scenario actually
// shows up in the per-cell report: the peak cell carries more voice and data
// load than the cells farthest from it.
func TestHotspotShapesPerCellLoad(t *testing.T) {
	cfg := scenarioQuickConfig(t, 7)
	cfg.MeasurementSec = 1500
	spec, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := scenario.Apply(&cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg, 1)
	center := spec.Spatial.Center
	if w := prof.Weights(); w[center] <= 1 {
		t.Fatalf("hotspot preset should overload the center, weights %v", w)
	}
	edge := cfg.Topology.Distances(center)
	var centerCVT, edgeCVT float64
	var edgeCells int
	for i, m := range res.PerCell {
		if i == center {
			centerCVT = m.CarriedVoiceTraffic
			continue
		}
		if edge[i] == cfg.Topology.Eccentricity(center) {
			edgeCVT += m.CarriedVoiceTraffic
			edgeCells++
		}
	}
	if edgeCells == 0 {
		t.Fatal("no edge cells found")
	}
	edgeCVT /= float64(edgeCells)
	if centerCVT <= edgeCVT {
		t.Errorf("hotspot center should carry more voice traffic: center %.3f, edge mean %.3f", centerCVT, edgeCVT)
	}
}

// TestTimeVaryingProfileGatesArrivals drives the zero-rate and rate-change
// paths of the arrival generator: with scale 0 until deep into the run, no
// fresh arrivals may happen before the step, and the busy-hour ramp must
// change the sample path relative to the constant profile.
func TestTimeVaryingProfileGatesArrivals(t *testing.T) {
	// Scale 0 for the whole warm-up plus measurement: the run stays silent.
	cfg := scenarioQuickConfig(t, 7)
	silent := scenario.Spec{Temporal: scenario.Temporal{Kind: scenario.Steps,
		Steps: []scenario.Step{{AtSec: 0, Scale: 0}}}}
	if _, err := scenario.Apply(&cfg, silent); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg, 1)
	if res.PacketsOffered != 0 || res.CarriedVoiceTraffic.Mean != 0 {
		t.Errorf("zero-rate profile should produce no traffic, got %+v", res)
	}

	// Scale 0 until mid-run, then 1: traffic appears, and the run differs
	// from the always-on baseline.
	lateStart := scenario.Spec{Temporal: scenario.Temporal{Kind: scenario.Steps,
		Steps: []scenario.Step{{AtSec: 0, Scale: 0}, {AtSec: 400, Scale: 1}}}}
	cfgLate := scenarioQuickConfig(t, 7)
	if _, err := scenario.Apply(&cfgLate, lateStart); err != nil {
		t.Fatal(err)
	}
	late := mustRun(t, cfgLate, 1)
	if late.PacketsOffered == 0 {
		t.Error("arrivals should resume once the scale steps to 1")
	}
	baseline := mustRun(t, scenarioQuickConfig(t, 7), 1)
	if reflect.DeepEqual(late, baseline) {
		t.Error("a gated profile should change the sample path")
	}
	if sharded := mustRun(t, cfgLate, 3); !reflect.DeepEqual(sharded, late) {
		t.Error("time-varying profile must stay engine-independent")
	}
}

// TestMismatchedProfileRejected guards the validation hole a sized profile
// closes: a profile compiled for a smaller cluster than the configured
// topology would silently zero the extra cells' traffic, so the simulator
// must refuse to build.
func TestMismatchedProfileRejected(t *testing.T) {
	spec, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := spec.Compile(cluster.NewHexCluster(), 0.475, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioQuickConfig(t, 19)
	cfg.Rates = prof
	if _, err := sim.New(cfg); err == nil {
		t.Error("a 7-cell profile on a 19-cell topology should be rejected")
	}
	if _, err := sim.NewSharded(cfg, sim.ShardedOptions{Shards: 2}); err == nil {
		t.Error("the sharded engine should reject the mismatch too")
	}
}

// TestPerCellReportIsConsistent cross-checks the per-cell report against the
// established mid-cell measures on a symmetric run.
func TestPerCellReportIsConsistent(t *testing.T) {
	cfg := scenarioQuickConfig(t, 7)
	res := mustRun(t, cfg, 1)
	if len(res.PerCell) != 7 {
		t.Fatalf("expected 7 per-cell reports, got %d", len(res.PerCell))
	}
	mid := res.PerCell[cluster.MidCell]
	if mid.Cell != cluster.MidCell {
		t.Errorf("per-cell report misindexed: %+v", mid)
	}
	if mid.PacketsOffered != res.PacketsOffered || mid.PacketsLost != res.PacketsLost ||
		mid.PacketsDelivered != res.PacketsDelivered {
		t.Errorf("mid-cell packet totals disagree: %+v vs %+v", mid, res)
	}
	if mid.HandoversIn != res.HandoversIn || mid.HandoversOut != res.HandoversOut {
		t.Errorf("mid-cell handover totals disagree: %+v vs %+v", mid, res)
	}
	if math.Abs(mid.CarriedVoiceTraffic-res.CarriedVoiceTraffic.Mean) > 1e-9 {
		t.Errorf("mid-cell CVT %.6f disagrees with batch-means %.6f",
			mid.CarriedVoiceTraffic, res.CarriedVoiceTraffic.Mean)
	}
	for _, m := range res.PerCell {
		if m.CarriedVoiceTraffic <= 0 || m.ThroughputBits <= 0 {
			t.Errorf("cell %d: implausible symmetric-load measures %+v", m.Cell, m)
		}
	}
}
