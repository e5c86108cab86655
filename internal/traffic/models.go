package traffic

import "fmt"

// Model identifies one of the three traffic models of Table 3 in the paper.
type Model int

const (
	// Model1 is the 8 kbit/s WWW browsing model (Table 3, column 1).
	Model1 Model = iota + 1
	// Model2 is the 32 kbit/s WWW browsing model (Table 3, column 2).
	Model2
	// Model3 is the heavy-load model derived from Model2 by setting the off
	// duration equal to the on duration and using 50 packet calls per session
	// (Table 3, column 3).
	Model3
)

// ParseModel returns the traffic model numbered id, or an error wrapping
// ErrInvalidParameter when id is not one of Table 3's models 1, 2 and 3.
func ParseModel(id int) (Model, error) {
	if id < int(Model1) || id > int(Model3) {
		return 0, fmt.Errorf("%w: traffic model %d is outside 1..3", ErrInvalidParameter, id)
	}
	return Model(id), nil
}

// String returns the name used in the paper for the traffic model.
func (m Model) String() string {
	switch m {
	case Model1:
		return "traffic model 1 (8 kbit/s WWW)"
	case Model2:
		return "traffic model 2 (32 kbit/s WWW)"
	case Model3:
		return "traffic model 3 (heavy load)"
	default:
		return "unknown traffic model"
	}
}

// ModelSpec bundles the session-level parameters of a traffic model with the
// admission limit M used for it in the paper's experiments.
type ModelSpec struct {
	// Name is the paper's label for the model.
	Name string
	// Session holds the 3GPP session parameters.
	Session SessionParams
	// MaxSessions is the admission limit M on concurrently active GPRS
	// sessions used with this model (Table 3).
	MaxSessions int
}

// Spec returns the Table 3 parameters for the traffic model.
func (m Model) Spec() ModelSpec {
	switch m {
	case Model1:
		return ModelSpec{
			Name: m.String(),
			Session: SessionParams{
				NumPacketCalls:        5,
				ReadingTimeSec:        412,
				PacketsPerCall:        25,
				PacketInterarrivalSec: 0.5,
			},
			MaxSessions: 50,
		}
	case Model2:
		return ModelSpec{
			Name: m.String(),
			Session: SessionParams{
				NumPacketCalls:        5,
				ReadingTimeSec:        412,
				PacketsPerCall:        25,
				PacketInterarrivalSec: 0.125,
			},
			MaxSessions: 50,
		}
	case Model3:
		// Derived from model 2: off duration equals the on duration
		// (N_d * D_d = 3.125 s) and 50 packet calls per session.
		return ModelSpec{
			Name: m.String(),
			Session: SessionParams{
				NumPacketCalls:        50,
				ReadingTimeSec:        3.125,
				PacketsPerCall:        25,
				PacketInterarrivalSec: 0.125,
			},
			MaxSessions: 20,
		}
	default:
		return ModelSpec{Name: m.String()}
	}
}

// AllModels lists the three traffic models of Table 3.
func AllModels() []Model {
	return []Model{Model1, Model2, Model3}
}
