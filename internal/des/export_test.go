package des

import "math/rand"

// newMathRandStream returns a stream of the given kind that draws from
// rand.NewSource(seed) instead of the package's own copy of that source: the
// oracle the equivalence tests compare NewStreamKind against.
func newMathRandStream(seed int64, kind StreamKind) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(seed)), kind: kind}
}
