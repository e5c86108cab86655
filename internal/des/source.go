package des

import (
	"math/rand"
	"sync"
)

// The source below is math/rand's additive lagged-Fibonacci generator
// (rand.NewSource): 607 words of state, tap 273, x_n = x_{n-607} + x_{n-273}
// mod 2^64. Only the seeding is computed differently. Seed s runs the
// sequence y_{k+1} = 48271·y_k mod (2^31-1) from y_0 = s mod (2^31-1)
// (89482311 when that is 0) and sets word i to
// y_{21+3i}<<40 ^ y_{22+3i}<<20 ^ y_{23+3i} ^ table[i]. math/rand walks the
// sequence as one chain of 1,841 dependent steps; here each of the three
// shifts has its own chain, stepped by 48271³ with the product reduced
// modulo the Mersenne prime by a shift and an add, so the processor runs the
// three at once. The words, and so every draw, are those of
// rand.NewSource(s).
const (
	srcLen = 607 // words of state
	srcTap = 273 // lag of the second tap

	mersenne31 = 1<<31 - 1 // the modulus of the seeding sequence
	seedMul    = 48271     // its multiplier

	seedMul3  = seedMul * seedMul * seedMul % mersenne31 // one step of each chain
	seedMul6  = seedMul3 * seedMul3 % mersenne31
	seedMul21 = seedMul6 * seedMul6 % mersenne31 * seedMul6 % mersenne31 * seedMul3 % mersenne31

	zeroSeed = 89482311 // stands in for a seed ≡ 0 mod 2^31-1, as in math/rand
)

// source is the state of math/rand's generator, seeded three chains at a
// time. Its methods make it a rand.Source64.
type source struct {
	tap, feed int
	vec       [srcLen]uint64
}

// mulMod31 returns x·m mod 2^31-1 for x, m < 2^31-1: the 62-bit product
// folds its high bits onto its low 31 (2^31 ≡ 1), leaving a sum below
// 2·(2^31-1).
func mulMod31(x, m uint64) uint64 {
	y := x * m
	r := y&mersenne31 + y>>31
	if r >= mersenne31 {
		r -= mersenne31
	}
	return r
}

// fill sets dst[i] to the three chain values of word i under seed, XORed
// with mask[i]. With mask the seeding table, it is Seed's state; with mask
// seed 1's state, it is the table.
func fill(dst *[srcLen]uint64, seed int64, mask *[srcLen]uint64) {
	seed %= mersenne31
	if seed < 0 {
		seed += mersenne31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	a := mulMod31(uint64(seed), seedMul21)
	b := mulMod31(a, seedMul)
	c := mulMod31(b, seedMul)
	for i := range dst {
		dst[i] = a<<40 ^ b<<20 ^ c ^ mask[i]
		a = mulMod31(a, seedMul3)
		b = mulMod31(b, seedMul3)
		c = mulMod31(c, seedMul3)
	}
}

// seedTable is math/rand's table of 607 "cooked" words (rngCooked), derived
// once from rand.NewSource(1) instead of copied: its first 607 outputs are
// its state after 607 steps, since each step feeds one word; undoing the
// steps in reverse order gives seed 1's state, and XORing out seed 1's chain
// values leaves the table.
var seedTable = sync.OnceValue(func() *[srcLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var vec [srcLen]uint64
	feed := srcLen - srcTap
	for range srcLen { // step k feeds the word before the last one fed
		feed = (feed + srcLen - 1) % srcLen
		vec[feed] = src.Uint64()
	}
	// Both taps are back where they started; undo the last step first.
	for tap := range srcLen {
		vec[feed] -= vec[tap]
		feed = (feed + 1) % srcLen
	}
	table := new([srcLen]uint64)
	fill(table, 1, &vec)
	return table
})

// Seed sets the state that rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	fill(&s.vec, seed, seedTable())
}

// Uint64 returns the next 64-bit output: both taps move back one word and
// the sum of the two words replaces the feed word.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next output with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
