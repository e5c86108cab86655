// Package policy defines the pluggable admission/handover policies of the
// multi-cell GPRS simulator. The paper's model admits every fresh call and
// every handover alike whenever a traffic channel is free; classic GSM
// network design asks sharper questions — should handovers be protected from
// fresh-call load, and what happens to a handover that finds the target cell
// full? This package names the three textbook answers:
//
//   - GuardChannels reserves g of the C voice channels for handover
//     arrivals: fresh calls are blocked once C-g channels are busy, while
//     handovers may fill the cell completely. The scheme has a closed-form
//     birth-death solution (erlang.GuardB), which the test suite uses as a
//     correctness oracle against the simulator.
//
//   - QueuedHandovers parks a voice handover that finds the target cell full
//     in a bounded per-cell FIFO instead of dropping it. The head of the
//     queue is served as soon as a channel frees; an entry whose deadline
//     passes — or whose call would have completed anyway — expires and counts
//     as a handover failure.
//
//   - DirectedRetry forwards a failed handover (voice or session) once
//     towards the source cell's next neighbour in deterministic order; a
//     second failure drops the user.
//
// # Determinism contract
//
// Policies are pure admission rules: no policy consumes a random draw, so a
// nil policy configuration is bit-identical to the historic engines (pinned
// by the golden-digest suite of internal/sim), and every policy is
// implemented identically in the serial and the sharded engine — the
// directed-retry forward travels as an ordinary handover message under the
// same conservative-window lookahead, so cross-engine bit-identity holds for
// every policy.
package policy

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidPolicy is returned for malformed policy configurations.
var ErrInvalidPolicy = errors.New("policy: invalid policy")

// Kind selects the admission/handover policy of a run.
type Kind int

const (
	// None is the paper's default: fresh calls and handovers share the C
	// voice channels and a handover finding the cell full is dropped.
	None Kind = iota
	// GuardChannels reserves Config.Guard voice channels for handovers.
	GuardChannels
	// QueuedHandovers queues blocked voice handovers per cell, bounded by
	// Config.QueueCapacity and Config.QueueDeadlineSec.
	QueuedHandovers
	// DirectedRetry retries a failed handover once towards the source cell's
	// next neighbour in deterministic order.
	DirectedRetry
)

// String returns the canonical policy name, the inverse of Parse.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case GuardChannels:
		return "guard"
	case QueuedHandovers:
		return "queue"
	case DirectedRetry:
		return "retry"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Names returns the policy names Parse accepts, in Kind order.
func Names() []string {
	return []string{None.String(), GuardChannels.String(), QueuedHandovers.String(), DirectedRetry.String()}
}

// Parse resolves a policy name (as accepted by the -policy CLI flag and the
// scenario JSON form) to its Kind.
func Parse(name string) (Kind, error) {
	for _, k := range []Kind{None, GuardChannels, QueuedHandovers, DirectedRetry} {
		if name == k.String() {
			return k, nil
		}
	}
	return None, fmt.Errorf("%w: unknown policy name %q (known: %v)", ErrInvalidPolicy, name, Names())
}

// Config parameterizes the admission/handover policy of a run. The zero
// value is the None policy; parameters of the other kinds must be zero
// unless that kind is selected, so a typo'd configuration fails validation
// instead of being silently ignored.
type Config struct {
	// Kind selects the policy.
	Kind Kind
	// Guard is the number of voice channels reserved for handover arrivals
	// (GuardChannels only). It must be non-negative and leave at least one
	// channel for fresh calls.
	Guard int
	// QueueCapacity bounds the per-cell handover queue (QueuedHandovers
	// only). It must be at least 1.
	QueueCapacity int
	// QueueDeadlineSec is the maximum time a queued handover waits for a
	// channel before expiring as a failure (QueuedHandovers only). It must be
	// positive and finite.
	QueueDeadlineSec float64
}

// Validate reports whether the configuration is well formed. gsmChannels is
// the number of voice channels of the cell the policy applies to (used to
// bound the guard reservation); callers that cannot know it yet — the
// scenario layer validates specs before a channel plan exists — pass 0 to
// skip the channel-dependent check.
func (c Config) Validate(gsmChannels int) error {
	switch c.Kind {
	case None, GuardChannels, QueuedHandovers, DirectedRetry:
	default:
		return fmt.Errorf("%w: unknown policy kind %d", ErrInvalidPolicy, int(c.Kind))
	}
	if c.Kind != GuardChannels && c.Guard != 0 {
		return fmt.Errorf("%w: guard channels %d set for policy %q", ErrInvalidPolicy, c.Guard, c.Kind)
	}
	if c.Kind != QueuedHandovers {
		if c.QueueCapacity != 0 {
			return fmt.Errorf("%w: queue capacity %d set for policy %q", ErrInvalidPolicy, c.QueueCapacity, c.Kind)
		}
		if c.QueueDeadlineSec != 0 {
			return fmt.Errorf("%w: queue deadline %v s set for policy %q", ErrInvalidPolicy, c.QueueDeadlineSec, c.Kind)
		}
	}
	switch c.Kind {
	case GuardChannels:
		if c.Guard < 0 {
			return fmt.Errorf("%w: negative guard channels %d", ErrInvalidPolicy, c.Guard)
		}
		if gsmChannels > 0 && c.Guard >= gsmChannels {
			return fmt.Errorf("%w: guard channels %d must leave a channel for fresh calls (cell has %d voice channels)",
				ErrInvalidPolicy, c.Guard, gsmChannels)
		}
	case QueuedHandovers:
		if c.QueueCapacity < 1 {
			return fmt.Errorf("%w: queue capacity %d (want >= 1)", ErrInvalidPolicy, c.QueueCapacity)
		}
		if c.QueueDeadlineSec <= 0 || math.IsNaN(c.QueueDeadlineSec) || math.IsInf(c.QueueDeadlineSec, 0) {
			return fmt.Errorf("%w: queue deadline %v s (want positive and finite)", ErrInvalidPolicy, c.QueueDeadlineSec)
		}
	}
	return nil
}
