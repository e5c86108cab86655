// Determinism and exactness contracts of the in-run probe layer (package
// probe wired through Config.Probe): arming the time-series probes must not
// change a single bit of the results on either engine, the recorded series
// must reproduce the terminal per-cell aggregates exactly when integrated
// over the run, and the shard engine's barrier counters must balance against
// the handover-flow ledger.
package sim_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// mustRunSeries runs a probe-armed configuration and returns results plus the
// recorded series.
func mustRunSeries(t *testing.T, cfg sim.Config, shards int) (sim.Results, *probe.Series) {
	t.Helper()
	res, ser, err := sim.RunOnceSeries(cfg, sim.ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if ser == nil {
		t.Fatal("probe armed but no series recorded")
	}
	return res, ser
}

// TestGoldenResultDigestsProbesArmed is the probes-enabled column of the
// golden digest table: with Config.Probe set — and its windows deliberately
// misaligned with the batch boundaries, so the measurement loop's advance
// targets are repartitioned — every preset on both engines must still
// reproduce the exact seed digests of the probes-off runs. This pins the
// probe determinism contract (no model events, no extra draws, shadow-only
// accumulators) bit for bit. -short restricts the table to the seven-cell
// cluster, mirroring the probes-off test.
func TestGoldenResultDigestsProbesArmed(t *testing.T) {
	for _, g := range goldenDigests {
		if g.cells != 7 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("%s/%dcells", g.name, g.cells), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				cfg := goldenConfig(t, g.name, g.cells)
				// 37.5 s does not divide the 120 s batch length: probe
				// boundaries interleave with batch ends.
				cfg.Probe = &probe.Spec{IntervalSec: 37.5}
				res, ser := mustRunSeries(t, cfg, shards)
				if got := seedDigest(res); got != g.want {
					t.Errorf("%d shard(s): probes-armed digest %s, want seed digest %s",
						shards, got, g.want)
				}
				if ser.Windows() != 16 {
					t.Errorf("%d shard(s): %d windows recorded, want 16", shards, ser.Windows())
				}
				if last := ser.Times[ser.Windows()-1]; last != cfg.WarmupSec+cfg.MeasurementSec {
					t.Errorf("%d shard(s): last window at %v, want %v",
						shards, last, cfg.WarmupSec+cfg.MeasurementSec)
				}
			}
		})
	}
}

// TestSeriesMatchesPerCellAggregates is the exactness contract of the series:
// the final (clamped) window's cumulative counters equal the terminal PerCell
// totals bit for bit, the derived ratios (blocking, loss, delay, throughput)
// reproduce the report's formulas exactly, and the shadow-gauge means match
// the terminal time averages bit for bit in every cell — the mid cell
// included, since the batch-means loop differences running integrals instead
// of restarting the mid cell's gauges, and radio-block deliveries are
// processed at their true timestamps so no gauge update ever lands past a
// window boundary. The recorded series itself must be bit-identical across
// engines.
func TestSeriesMatchesPerCellAggregates(t *testing.T) {
	// The queue policy drives the admission-policy counters off zero, so
	// their final windows are checked against non-trivial totals too.
	for _, pol := range []*policy.Config{nil, {Kind: policy.QueuedHandovers, QueueCapacity: 2, QueueDeadlineSec: 5}} {
		name := "default"
		if pol != nil {
			name = pol.Kind.String()
		}
		t.Run(name, func(t *testing.T) {
			cfg := scenarioQuickConfig(t, 7)
			cfg.Policy = pol
			// 70 s does not divide the 600 s measurement: the final window is
			// clamped short, the hardest case of the aggregation.
			cfg.Probe = &probe.Spec{IntervalSec: 70}
			checkSeriesMatchesPerCell(t, cfg)
		})
	}
}

func checkSeriesMatchesPerCell(t *testing.T, cfg sim.Config) {
	res, ser := mustRunSeries(t, cfg, 1)

	_, serSharded := mustRunSeries(t, cfg, 4)
	if !reflect.DeepEqual(ser, serSharded) {
		t.Error("recorded series differs between serial and sharded engines")
	}

	k := ser.Windows() - 1
	if k < 1 || ser.Times[k] != cfg.WarmupSec+cfg.MeasurementSec {
		t.Fatalf("degenerate series: %d windows, last at %v", ser.Windows(), ser.Times[k])
	}
	var queued int64
	for i, m := range res.PerCell {
		cs := &ser.Cells[i]
		queued += m.HandoversQueued
		// Every counter that is both sampled and reported per cell.
		for n := range probe.NumCounters {
			want := m.Counter(n)
			if !n.Sampled() || want == nil {
				continue
			}
			if got := cs.Counts[n][k]; got != *want {
				t.Errorf("cell %d: final cumulative %s %d, want terminal total %d", i, probe.Counters[n].Column, got, *want)
			}
		}
		offered, lost, delivered := cs.Counts[probe.PacketsOffered], cs.Counts[probe.PacketsLost], cs.Counts[probe.PacketsDelivered]
		// Derived ratios: same operands, same expressions as perCellMeasures.
		if offered[k] > 0 {
			if plp := float64(lost[k]) / float64(offered[k]); plp != m.PacketLossProbability {
				t.Errorf("cell %d: series PLP %v, want %v", i, plp, m.PacketLossProbability)
			}
		}
		if delivered[k] > 0 {
			if d := cs.DelaySumSec[k] / float64(delivered[k]); d != m.QueueingDelaySec {
				t.Errorf("cell %d: series delay %v, want %v", i, d, m.QueueingDelaySec)
			}
		}
		if tput := float64(delivered[k]) * float64(traffic.PacketSizeBits) / cfg.MeasurementSec; tput != m.ThroughputBits {
			t.Errorf("cell %d: series throughput %v, want %v", i, tput, m.ThroughputBits)
		}
		if arr := cs.Counts[probe.GSMArrivals][k]; arr > 0 {
			if b := float64(cs.Counts[probe.GSMBlocked][k]) / float64(arr); b != m.GSMBlocking {
				t.Errorf("cell %d: series GSM blocking %v, want %v", i, b, m.GSMBlocking)
			}
		}
		gauges := []struct {
			name      string
			got, want float64
		}{
			{"CDT", cs.Means[probe.CarriedData][k], m.CarriedDataTraffic},
			{"queue", cs.Means[probe.BufferOccupancy][k], m.MeanQueueLength},
			{"CVT", cs.Means[probe.CarriedVoice][k], m.CarriedVoiceTraffic},
			{"AGS", cs.Means[probe.ActiveSessions][k], m.AverageSessions},
		}
		// Every cell keeps one gauge window for the whole measurement (batch
		// boundaries only read running integrals), so shadow and model
		// accumulators hold identical state and the means must agree bit for
		// bit — no boundary tolerance, mid cell included.
		for _, g := range gauges {
			if g.got != g.want {
				t.Errorf("cell %d: series %s mean %v, want terminal %v bit-identically", i, g.name, g.got, g.want)
			}
		}
		// Cumulative counters never decrease across windows.
		for w := 1; w <= k; w++ {
			for n := range probe.NumCounters {
				if c := cs.Counts[n]; c != nil && c[w] < c[w-1] {
					t.Fatalf("cell %d: cumulative %s decreased at window %d", i, probe.Counters[n].Column, w)
				}
			}
		}
	}
	if cfg.Policy != nil && queued == 0 {
		t.Error("no handover was queued: the policy counters were checked only at zero")
	}

	checkSeriesCSVRoundTrip(t, ser, res, cfg.MeasurementSec)
}

// checkSeriesCSVRoundTrip pins the CSV exporter against the same terminal
// aggregates: the written file's final rows must parse back to the exact
// per-cell totals (floats are written in shortest round-trip form).
func checkSeriesCSVRoundTrip(t *testing.T, ser *probe.Series, res sim.Results, measurementSec float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := probe.WriteCSV(&buf, ser); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + ser.Windows()*len(ser.Cells)
	if len(rows) != wantRows {
		t.Fatalf("CSV has %d rows, want %d", len(rows), wantRows)
	}
	col := map[string]int{}
	for j, name := range rows[0] {
		col[name] = j
	}
	mustInt := func(row []string, name string) int64 {
		v, err := strconv.ParseInt(row[col[name]], 10, 64)
		if err != nil {
			t.Fatalf("column %s: %v", name, err)
		}
		return v
	}
	mustFloat := func(row []string, name string) float64 {
		v, err := strconv.ParseFloat(row[col[name]], 64)
		if err != nil {
			t.Fatalf("column %s: %v", name, err)
		}
		return v
	}
	// The final Windows()th block holds one row per cell.
	for i, m := range res.PerCell {
		row := rows[1+(ser.Windows()-1)*len(ser.Cells)+i]
		if got := mustInt(row, "cell"); got != int64(m.Cell) {
			t.Fatalf("final block row %d is cell %d, want %d", i, got, m.Cell)
		}
		if got := mustInt(row, "offered_cum"); got != m.PacketsOffered {
			t.Errorf("cell %d: CSV offered_cum %d, want %d", i, got, m.PacketsOffered)
		}
		if got := mustInt(row, "ho_arrivals_cum"); got != m.HandoverArrivals {
			t.Errorf("cell %d: CSV ho_arrivals_cum %d, want %d", i, got, m.HandoverArrivals)
		}
		if got := mustFloat(row, "carried_voice_cum"); got != ser.Cells[i].Means[probe.CarriedVoice][ser.Windows()-1] {
			t.Errorf("cell %d: CSV carried_voice_cum did not round-trip: %v", i, got)
		}
		wantTput := float64(m.PacketsDelivered) * float64(traffic.PacketSizeBits) / measurementSec
		if got := mustFloat(row, "window_throughput_bits"); ser.Windows() == 1 && got != wantTput {
			t.Errorf("cell %d: CSV window throughput %v, want %v", i, got, wantTput)
		}
	}
}

// TestShardBarrierMessageConservation ties the shard engine's barrier
// counters to the handover-flow ledger: on a drained, gated run (the
// handover-conservation workload) every cross-group handover is merged at
// exactly one window barrier. Under a one-cell-per-group partition every
// handover is cross-group, so Stats().MergedMessages equals the cells'
// summed handover departures — which the conservation suite already proves
// equal to the summed arrivals. Under the default locality grouping the
// intra-group handovers bypass the barrier, so the merged count falls
// strictly below the departures while the results stay bit-identical (the
// partition-equivalence suite pins that part).
func TestShardBarrierMessageConservation(t *testing.T) {
	preset, err := scenario.Preset("hotspot-pedestrian")
	if err != nil {
		t.Fatal(err)
	}
	cfg := conservationConfig(t, 7)
	if _, err := scenario.Apply(&cfg, gated(preset)); err != nil {
		t.Fatal(err)
	}
	perCell := cfg
	perCell.Partition = &partition.Spec{Kind: partition.KindIndexRange, Groups: 7}
	for _, shards := range []int{2, 4} {
		e, err := sim.NewSharded(perCell, sim.ShardedOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out, arrivals int64
		for _, m := range res.PerCell {
			out += m.HandoversOut
			arrivals += m.HandoverArrivals
		}
		if out == 0 {
			t.Fatal("degenerate run: no handovers at all")
		}
		if out != arrivals {
			t.Fatalf("%d shards: ledger unbalanced before the barrier check: %d out, %d arrivals",
				shards, out, arrivals)
		}
		st := e.ShardStats()
		if st.Windows == 0 {
			t.Errorf("%d shards: no windows counted", shards)
		}
		if st.MergedMessages != uint64(out) {
			t.Errorf("%d shards: %d messages merged at barriers, want the %d handover departures",
				shards, st.MergedMessages, out)
		}

		// Same run under the locality grouping: the groups absorb part of the
		// handover flow, so the barrier must see strictly less than all
		// departures (and the per-group event counts must cover every event).
		g, err := sim.NewSharded(cfg, sim.ShardedOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		gres, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		if g.Partition().NumGroups() != shards {
			t.Errorf("%d shards: default partition has %d groups", shards, g.Partition().NumGroups())
		}
		gst := g.ShardStats()
		if gst.MergedMessages >= uint64(out) {
			t.Errorf("%d shards: locality grouping merged %d messages, want strictly below the %d departures",
				shards, gst.MergedMessages, out)
		}
		var groupTotal uint64
		for _, n := range g.GroupEvents() {
			groupTotal += n
		}
		if groupTotal != gres.Events {
			t.Errorf("%d shards: group event counts sum to %d, run processed %d",
				shards, groupTotal, gres.Events)
		}
	}
}
