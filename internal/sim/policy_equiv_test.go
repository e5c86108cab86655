// Golden digests and cross-engine equivalence of the admission-policy layer:
// every policy must produce bit-identical results on the serial and the
// sharded engine, pinned by canonical digests over the seed-era fields plus
// the policy counters. The nil-policy
// column is goldenDigests itself (scenario_equiv_test.go): a run without
// Config.Policy must keep reproducing the pre-policy engine bit for bit.
package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// policyConfigs enumerates the pinned policy parameterizations of the golden
// table: one representative configuration per policy kind.
func policyConfigs() map[string]*policy.Config {
	return map[string]*policy.Config{
		"guard": {Kind: policy.GuardChannels, Guard: 2},
		"queue": {Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5},
		"retry": {Kind: policy.DirectedRetry},
	}
}

// policyGoldenDigests pins the exact results of every policy on the
// scenarioQuickConfig baseline, captured from the serial reference engine at
// the introduction of the policy layer. Each digest covers the seed-era
// fields plus the six per-cell policy counters (policyDigest).
var policyGoldenDigests = []struct {
	policy string
	cells  int
	want   string
}{
	{"guard", 7, "163ee50a5c7791e5"},
	{"queue", 7, "9369931eb7c73d14"},
	{"retry", 7, "74296199c01f2529"},
	{"guard", 19, "fcf6992d4e32f90a"},
	{"queue", 19, "ef807bab8649472a"},
	{"retry", 19, "b4adbd44516f3bdb"},
}

// TestPolicyGoldenDigests pins every policy's exact sample path bit for bit
// on the serial and the 4-shard engine. Both paths must reproduce the same
// pinned digest, which is the cross-engine bit-identity headline of the
// policy layer — directed-retry forwards travel as ordinary handover
// messages under the same conservative lookahead windows, and guard/queue
// decisions depend only on cell-local state. -short restricts the table to
// the seven-cell cluster.
func TestPolicyGoldenDigests(t *testing.T) {
	for _, g := range policyGoldenDigests {
		if g.cells != 7 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("%s/%dcells", g.policy, g.cells), func(t *testing.T) {
			var serial sim.Results
			for _, shards := range []int{1, 4} {
				cfg := scenarioQuickConfig(t, g.cells)
				cfg.Policy = policyConfigs()[g.policy]
				res := mustRun(t, cfg, shards)
				if got := policyDigest(res); got != g.want {
					t.Errorf("%d shard(s): digest %s, want pinned digest %s", shards, got, g.want)
				}
				if shards == 1 {
					serial = res
				} else if !reflect.DeepEqual(res, serial) {
					t.Errorf("sharded (%d shards) differs from serial engine", shards)
				}
			}
		})
	}
}

// TestPolicyChangesSamplePathAndLedger sanity-checks that each policy
// actually engages on the quick baseline (its signature counters are
// non-zero where they must be) and that the policy-specific invariants hold
// on the terminal per-cell report.
func TestPolicyChangesSamplePathAndLedger(t *testing.T) {
	baseline := mustRun(t, scenarioQuickConfig(t, 7), 1)
	for name, p := range policyConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := scenarioQuickConfig(t, 7)
			cfg.Policy = p
			res := mustRun(t, cfg, 1)
			if reflect.DeepEqual(res, baseline) {
				t.Fatalf("policy %q did not change the sample path", name)
			}
			var guardBlocked, queued, served, expired, retries int64
			for _, m := range res.PerCell {
				guardBlocked += m.GuardBlockedCalls
				queued += m.HandoversQueued
				served += m.HandoverQueueServed
				expired += m.HandoverQueueExpired
				retries += m.HandoverRetries
				// Entries parked before the measurement window can be served or
				// expired inside it, so the windowed ledger carries slack of at
				// most the queue capacity; the exact queued = served + expired
				// identity is pinned on drained runs by the conservation suite.
				if m.HandoverQueueServed+m.HandoverQueueExpired > m.HandoversQueued+int64(p.QueueCapacity) {
					t.Errorf("cell %d: queue ledger overdrawn: queued %d, served %d, expired %d",
						m.Cell, m.HandoversQueued, m.HandoverQueueServed, m.HandoverQueueExpired)
				}
			}
			switch p.Kind {
			case policy.GuardChannels:
				if guardBlocked == 0 {
					t.Error("guard policy never blocked a fresh call on a loaded run")
				}
				if queued != 0 || retries != 0 {
					t.Errorf("guard policy touched foreign counters: queued %d, retries %d", queued, retries)
				}
			case policy.QueuedHandovers:
				if queued == 0 {
					t.Error("queue policy never queued a handover on a loaded run")
				}
				if served == 0 {
					t.Error("queue policy never served a queued handover")
				}
				if guardBlocked != 0 || retries != 0 {
					t.Errorf("queue policy touched foreign counters: guard %d, retries %d", guardBlocked, retries)
				}
			case policy.DirectedRetry:
				if retries == 0 {
					t.Error("retry policy never forwarded a refused handover on a loaded run")
				}
				if guardBlocked != 0 || queued != 0 {
					t.Errorf("retry policy touched foreign counters: guard %d, queued %d", guardBlocked, queued)
				}
			}
		})
	}
}
