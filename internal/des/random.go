package des

import (
	"math"
	"math/rand"
)

// SubstreamSeed derives the seed of substream k of a base seed. The
// derivation is a SplitMix64 finalization step: the base seed is advanced by
// k+1 increments of the golden-ratio constant and the result is mixed through
// the SplitMix64 output permutation. Consecutive substream indices therefore
// land in well-separated regions of the underlying generator's state space,
// and the map (base, k) -> seed is free of the systematic collisions of
// affine schemes such as base*4+k (where nearby bases alias each other's
// substreams as the index range grows with the cell count).
func SubstreamSeed(base int64, k uint64) int64 {
	z := uint64(base) + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// StreamKind selects how a Stream turns its underlying uniform draws into
// variates. It exists for the antithetic-variates technique of the
// replication runner: an antithetic pair is two simulation runs whose
// variate streams consume the same underlying uniform sequence, one as U and
// one as 1-U, so that an unluckily long service time in one run pairs with a
// luckily short one in the other and the pair mean has lower variance than
// two independent runs.
type StreamKind int

const (
	// StreamDefault is the historic behaviour: variates use the generator's
	// native algorithms (ziggurat exponentials, rejection-sampled integers).
	// It is the zero value, so existing seeds reproduce bit-identically.
	StreamDefault StreamKind = iota
	// StreamPaired derives every variate by inversion from exactly one
	// uniform draw. It is the primary member of an antithetic pair: draw j
	// of a StreamPaired stream and draw j of a StreamAntithetic stream with
	// the same seed use the complementary uniforms u_j and 1-u_j.
	StreamPaired
	// StreamAntithetic is the antithetic member of a pair: like
	// StreamPaired, but every uniform draw is complemented to 1-u before
	// inversion.
	StreamAntithetic
)

// Stream is a reproducible random variate stream for simulation input
// modelling. Distinct model components should use distinct streams (obtained
// from distinct seeds) so that changing one input process does not perturb
// the others — the common random numbers technique.
//
// A StreamPaired/StreamAntithetic stream additionally guarantees that every
// variate consumes exactly one underlying uniform draw (all distributions
// are sampled by inversion), so the draw sequences of the two members of an
// antithetic pair stay complement-synchronized per stream even when the two
// simulation trajectories diverge.
type Stream struct {
	rng  *rand.Rand
	kind StreamKind

	// Unit-exponential batch buffer (see BatchExponentials). expBuf[expPos:]
	// holds pre-drawn unit exponentials; a nil buffer means unbatched draws.
	expBuf []float64
	expPos int
}

// NewStream returns a stream seeded deterministically, with the historic
// default draw behaviour (StreamDefault).
func NewStream(seed int64) *Stream { return NewStreamKind(seed, StreamDefault) }

// NewStreamKind returns a stream seeded deterministically with the given
// draw behaviour. Two streams created with the same seed and the kinds
// StreamPaired and StreamAntithetic form an antithetic pair: their j-th
// uniform draws are u_j and 1-u_j.
func NewStreamKind(seed int64, kind StreamKind) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(seed)), kind: kind}
}

// Kind returns the stream's draw behaviour.
func (s *Stream) Kind() StreamKind { return s.kind }

// u01 returns the next underlying uniform draw: u on [0,1) for default and
// paired streams, the complement 1-u on (0,1] for antithetic streams.
func (s *Stream) u01() float64 {
	u := s.rng.Float64()
	if s.kind == StreamAntithetic {
		u = 1 - u
	}
	return u
}

// tiny is the smallest uniform used by the inversion samplers; clamping the
// measure-zero endpoint draws to it keeps logarithms finite without
// consuming a second draw (which would desynchronize an antithetic pair).
const tiny = 0x1p-53

// Uniform returns a variate uniformly distributed on [0, 1). On antithetic
// streams the raw complement 1-u lies on (0, 1]; the endpoint 1 (a
// probability-2^-53 event) is nudged to the largest float below 1 to keep
// the documented half-open range.
func (s *Stream) Uniform() float64 {
	u := s.u01()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return u
}

// BatchExponentials pre-draws unit exponential variates in blocks of n
// (clamped to at least 2), amortizing the per-variate generator dispatch on
// exponential-only streams. Because the mean is applied at consumption time,
// batching is exact even when the mean changes between draws (time-varying
// rate profiles): the j-th Exponential call returns bit-identically the same
// value as on an unbatched stream.
//
// Batching is only valid for streams whose every variate is drawn through
// Exponential (in internal/sim, the arrival and call-duration streams).
// Enabling it on a stream that also serves Uniform, Geometric, Intn, or
// Bernoulli reorders the underlying uniform draws and breaks reproducibility
// against unbatched runs. n <= 0 disables batching; any buffered draws are
// consumed first, preserving the sequence.
func (s *Stream) BatchExponentials(n int) {
	if n <= 0 {
		return
	}
	if n < 2 {
		n = 2
	}
	if cap(s.expBuf) < n {
		buf := make([]float64, 0, n)
		buf = append(buf, s.expBuf[s.expPos:]...)
		s.expBuf = buf
		s.expPos = 0
	}
}

// unitExp draws one unit-mean exponential variate: the generator's ziggurat
// on default streams, single-draw inversion on paired/antithetic streams.
func (s *Stream) unitExp() float64 {
	if s.kind == StreamDefault {
		return s.rng.ExpFloat64()
	}
	v := 1 - s.u01()
	if v <= 0 {
		v = tiny
	}
	return -math.Log(v)
}

// Exponential returns an exponentially distributed variate with the given
// mean. A non-positive mean yields 0. Default streams use the generator's
// ziggurat algorithm; paired/antithetic streams invert the distribution
// function of a single uniform draw (-mean * ln(1-u)), which is monotone in
// the draw — the property antithetic pairing relies on. On a batched stream
// (BatchExponentials) the unit variate comes from the pre-drawn block; the
// value sequence is identical either way.
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if s.expBuf == nil {
		return s.unitExp() * mean
	}
	if s.expPos == len(s.expBuf) {
		s.expBuf = s.expBuf[:cap(s.expBuf)]
		for i := range s.expBuf {
			s.expBuf[i] = s.unitExp()
		}
		s.expPos = 0
	}
	v := s.expBuf[s.expPos]
	s.expPos++
	return v * mean
}

// Geometric returns a geometrically distributed variate on {1, 2, ...} with
// the given mean (>= 1): the number of Bernoulli trials up to and including
// the first success with success probability 1/mean. The 3GPP traffic model
// uses geometric counts for packet calls per session and packets per packet
// call. Paired/antithetic streams consume exactly one uniform draw (endpoint
// draws are clamped instead of redrawn).
func (s *Stream) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	var u float64
	if s.kind == StreamDefault {
		u = s.rng.Float64()
		for u == 0 {
			u = s.rng.Float64()
		}
	} else {
		u = s.u01()
		if u <= 0 {
			u = tiny
		}
	}
	// Inversion: ceil(ln(U) / ln(1-p)).
	n := int(math.Ceil(math.Log(u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.u01() < p }

// Intn returns a uniformly distributed integer in [0, n). It returns 0 for
// n <= 0. Paired/antithetic streams scale a single uniform draw instead of
// using the generator's rejection sampler, so the pair stays draw-for-draw
// synchronized.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	if s.kind == StreamDefault {
		return s.rng.Intn(n)
	}
	i := int(s.u01() * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
