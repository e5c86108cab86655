package policy

import (
	"errors"
	"strings"
	"testing"
)

// TestValidateErrorPaths sweeps the configuration error paths with one table
// entry per defect, asserting both that the error wraps ErrInvalidPolicy (so
// callers can errors.Is it) and that the message names the specific defect —
// mirroring the scenario JSON error-path suite.
func TestValidateErrorPaths(t *testing.T) {
	const channels = 19 // the default plan's 20 channels minus 1 reserved PDCH
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the specific wrapped error
	}{
		{"unknown kind", Config{Kind: Kind(42)}, "unknown policy kind 42"},
		{"negative guard", Config{Kind: GuardChannels, Guard: -1}, "negative guard channels -1"},
		{"guard equals channels", Config{Kind: GuardChannels, Guard: channels},
			"guard channels 19 must leave a channel"},
		{"guard above channels", Config{Kind: GuardChannels, Guard: channels + 5},
			"guard channels 24 must leave a channel"},
		{"zero queue capacity", Config{Kind: QueuedHandovers, QueueDeadlineSec: 5},
			"queue capacity 0"},
		{"negative queue capacity", Config{Kind: QueuedHandovers, QueueCapacity: -3, QueueDeadlineSec: 5},
			"queue capacity -3"},
		{"zero deadline", Config{Kind: QueuedHandovers, QueueCapacity: 4},
			"queue deadline 0 s"},
		{"negative deadline", Config{Kind: QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: -1},
			"queue deadline -1 s"},
		{"guard set on none", Config{Kind: None, Guard: 2}, `guard channels 2 set for policy "none"`},
		{"guard set on retry", Config{Kind: DirectedRetry, Guard: 2}, `guard channels 2 set for policy "retry"`},
		{"queue capacity set on guard", Config{Kind: GuardChannels, Guard: 1, QueueCapacity: 4},
			`queue capacity 4 set for policy "guard"`},
		{"deadline set on retry", Config{Kind: DirectedRetry, QueueDeadlineSec: 5},
			`queue deadline 5 s set for policy "retry"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(channels)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
			if !errors.Is(err, ErrInvalidPolicy) {
				t.Errorf("error does not wrap ErrInvalidPolicy: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the defect (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts pins the valid configurations, including the
// channel-count-unknown form (gsmChannels = 0) the scenario layer uses.
func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		channels int
	}{
		{"zero value", Config{}, 19},
		{"none", Config{Kind: None}, 19},
		{"guard", Config{Kind: GuardChannels, Guard: 2}, 19},
		{"zero guard", Config{Kind: GuardChannels}, 19},
		{"guard without channel bound", Config{Kind: GuardChannels, Guard: 100}, 0},
		{"queue", Config{Kind: QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}, 19},
		{"retry", Config{Kind: DirectedRetry}, 19},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(tc.channels); err != nil {
				t.Errorf("Validate rejected %+v: %v", tc.cfg, err)
			}
		})
	}
}

// TestParseRoundTrip checks Parse against every canonical name and pins the
// unknown-name error.
func TestParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{None, GuardChannels, QueuedHandovers, DirectedRetry} {
		got, err := Parse(k.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("Parse(%q) = %v, want %v", k.String(), got, k)
		}
	}
	_, err := Parse("roundrobin")
	if err == nil {
		t.Fatal("Parse accepted an unknown policy name")
	}
	if !errors.Is(err, ErrInvalidPolicy) {
		t.Errorf("error does not wrap ErrInvalidPolicy: %v", err)
	}
	if !strings.Contains(err.Error(), `unknown policy name "roundrobin"`) {
		t.Errorf("error %q does not name the defect", err)
	}
	if got := len(Names()); got != 4 {
		t.Errorf("Names() lists %d policies, want 4", got)
	}
}
