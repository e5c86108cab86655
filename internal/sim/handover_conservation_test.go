// Handover flow conservation: the wrap-around clusters are closed, so every
// handover departure must eventually arrive at some cell — admitted, dropped
// for lack of capacity, or carrying a voice call that completed in transit.
// The tests verify the exact ledger sum(HandoversOut) == sum(HandoverArrivals)
// over all cells, for every built-in scenario preset (the mobility presets
// included) and for both engines. Exactness requires that no message is in
// flight across the measurement-window boundaries, so the runs start their
// window at time 0 (no warm-up) and gate the fresh arrivals off mid-run: by
// the end of the drain period every user has left the system — verified
// through the carried-traffic and flow counters themselves — and with them
// every in-flight message.
package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// conservationConfig returns a run whose handover ledger must balance
// exactly: measurement window [0, 2400) s, fresh arrivals gated off at 400 s,
// and short sessions so the 2000 s drain empties the system deterministically
// (mean call duration 120 s, mean session lifetime well under a minute).
func conservationConfig(t *testing.T, cells int) sim.Config {
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
	cfg.Session = traffic.SessionParams{
		NumPacketCalls:        2,
		ReadingTimeSec:        5,
		PacketsPerCall:        10,
		PacketInterarrivalSec: 0.1,
	}
	cfg.WarmupSec = 0
	cfg.MeasurementSec = 2400
	cfg.Batches = 4
	cfg.Seed = 11
	return cfg
}

// gated replaces a preset's temporal profile with an on/off gate (scale 1
// until 400 s, 0 afterwards), keeping its spatial and mobility shapes: the
// shapes are what conservation has to survive, and the gate guarantees the
// system drains before the window closes so the ledger can balance exactly.
func gated(spec scenario.Spec) scenario.Spec {
	spec.Temporal = scenario.Temporal{Kind: scenario.Steps,
		Steps: []scenario.Step{{AtSec: 0, Scale: 1}, {AtSec: 400, Scale: 0}}}
	if spec.Mobility != nil {
		// Mobility temporal gates are not allowed to hit zero (a zero dwell
		// scale is invalid); keep the preset's spatial dwell shape constant.
		mob := *spec.Mobility
		mob.Temporal = scenario.Temporal{}
		spec.Mobility = &mob
	}
	return spec
}

// TestHandoverFlowConservation pins the ledger under every preset, cluster
// size, and engine: total outbound handovers equal total handover arrivals,
// arrivals decompose into admissions, capacity drops, and in-transit
// completions, and the per-service outbound split sums to the total.
func TestHandoverFlowConservation(t *testing.T) {
	sizes := []int{7}
	if !testing.Short() {
		sizes = append(sizes, 19)
	}
	for _, name := range scenario.Names() {
		preset, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := gated(preset)
		for _, cells := range sizes {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%dcells/%dshards", name, cells, shards), func(t *testing.T) {
					cfg := conservationConfig(t, cells)
					if _, err := scenario.Apply(&cfg, spec); err != nil {
						t.Fatal(err)
					}
					checkConservation(t, mustRun(t, cfg, shards), cells)
				})
			}
		}
	}
}

// checkConservation asserts the exact flow ledger over a drained run,
// admission-policy counters included. Per cell, every handover arrival is
// disposed of exactly once on arrival: admitted directly, failed
// immediately, parked in the handover queue, forwarded by directed retry, or
// found its call completed in transit. Queue entries resolve later as served
// (counted into HandoversIn) or expired (counted into HandoverFailures), so
// the direct-arrival ledger subtracts those resolutions:
//
//	arrivals == (in - served) + (failures - expired) + transitEnds + queued + retries
//
// and the queue's own ledger closes exactly on a drained run:
//
//	queued == served + expired
//
// Under a nil policy every policy counter is zero and the ledger reduces to
// the exact arrivals == in + failures + transitEnds.
func checkConservation(t *testing.T, res sim.Results, cells int) {
	t.Helper()
	if len(res.PerCell) != cells {
		t.Fatalf("%d per-cell reports, want %d", len(res.PerCell), cells)
	}
	var out, in, arrivals, failures int64
	for _, m := range res.PerCell {
		if m.HandoversOut != m.VoiceHandoversOut+m.SessionHandoversOut {
			t.Errorf("cell %d: outbound split %d+%d does not sum to %d",
				m.Cell, m.VoiceHandoversOut, m.SessionHandoversOut, m.HandoversOut)
		}
		direct := (m.HandoversIn - m.HandoverQueueServed) +
			(m.HandoverFailures - m.HandoverQueueExpired) +
			m.HandoverTransitEnds + m.HandoversQueued + m.HandoverRetries
		if m.HandoverArrivals != direct {
			t.Errorf("cell %d: arrivals %d != (in %d - served %d) + (failures %d - expired %d) + transit %d + queued %d + retries %d",
				m.Cell, m.HandoverArrivals, m.HandoversIn, m.HandoverQueueServed,
				m.HandoverFailures, m.HandoverQueueExpired, m.HandoverTransitEnds,
				m.HandoversQueued, m.HandoverRetries)
		}
		if m.HandoversQueued != m.HandoverQueueServed+m.HandoverQueueExpired {
			t.Errorf("cell %d: queue ledger open: queued %d != served %d + expired %d",
				m.Cell, m.HandoversQueued, m.HandoverQueueServed, m.HandoverQueueExpired)
		}
		out += m.HandoversOut
		in += m.HandoversIn
		arrivals += m.HandoverArrivals
		failures += m.HandoverFailures
	}
	if out == 0 {
		t.Fatal("degenerate run: no handovers at all")
	}
	if out != arrivals {
		t.Errorf("flow not conserved: %d departures, %d arrivals (%d in flight at a window boundary?)",
			out, arrivals, out-arrivals)
	}
	if in > arrivals {
		t.Errorf("admissions %d exceed arrivals %d", in, arrivals)
	}
	if failures > arrivals-in {
		t.Errorf("failures %d exceed non-admitted arrivals %d", failures, arrivals-in)
	}
}

// TestHandoverFlowConservationPolicies pins the extended ledger for every
// explicit admission policy on the gated hotspot workload (the hotspot shape
// keeps the mid cell saturated so every policy path actually fires), on both
// engines and both cluster sizes. The scenario presets carrying policies ride
// TestHandoverFlowConservation through scenario.Names(); this table covers
// the policy kinds directly so the ledger holds even if preset defaults
// change.
func TestHandoverFlowConservationPolicies(t *testing.T) {
	sizes := []int{7}
	if !testing.Short() {
		sizes = append(sizes, 19)
	}
	preset, err := scenario.Preset("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	spec := gated(preset)
	for name, p := range policyConfigs() {
		for _, cells := range sizes {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%dcells/%dshards", name, cells, shards), func(t *testing.T) {
					cfg := conservationConfig(t, cells)
					if _, err := scenario.Apply(&cfg, spec); err != nil {
						t.Fatal(err)
					}
					cfg.Policy = p
					checkConservation(t, mustRun(t, cfg, shards), cells)
				})
			}
		}
	}
}

// TestHandoverConservationEngineEquality double-checks that the drained
// conservation workload — warm-up-free, gated, with a mobility preset — is
// itself bit-identical across engines, so the ledger above pins the same
// numbers for every shard count.
func TestHandoverConservationEngineEquality(t *testing.T) {
	preset, err := scenario.Preset("hotspot-pedestrian")
	if err != nil {
		t.Fatal(err)
	}
	cfg := conservationConfig(t, 7)
	if _, err := scenario.Apply(&cfg, gated(preset)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mustRun(t, cfg, 1), mustRun(t, cfg, 4)) {
		t.Error("conservation workload differs between engines")
	}
}
