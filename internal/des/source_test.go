package des

import (
	"math"
	"math/rand"
	"testing"
)

// sourceTestSeeds are the seeds TestStreamSourceMatchesMathRand checks: the
// edges of the seed reduction (0, ±1, the stand-in for 0, multiples of
// 2^31-1 and their neighbours, the int64 extremes), and the seeds of the 8
// replications of base seed 1 with the stream seeds internal/sim derives
// from each on a 37-cell cluster (four per cell).
func sourceTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, 1 << 32, math.MaxInt64 / mersenne31} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*mersenne31+d, -k*mersenne31+d)
		}
	}
	for i := range uint64(8) {
		rep := SubstreamSeed(1, i)
		seeds = append(seeds, rep)
		for k := range uint64(37 * 4) {
			seeds = append(seeds, SubstreamSeed(rep, k))
		}
	}
	return seeds
}

// sourceDraws is the number of outputs compared per seed and method, more
// than two full turns of the 607-word state.
const sourceDraws = 1300

// TestStreamSourceMatchesMathRand checks that the package's source, seeded
// three chains at a time, gives the outputs of rand.NewSource on every seed
// of sourceTestSeeds, through both Uint64 and Int63, and that re-seeding a
// used source starts it over.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	seeds := sourceTestSeeds()
	if len(seeds) < 1000 {
		t.Fatalf("%d seeds, want at least 1000", len(seeds))
	}
	var s source
	for _, seed := range seeds {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for j := range sourceDraws {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, rand.NewSource gives %#x", seed, j, got, w)
			}
		}
		s.Seed(seed)
		want.Seed(seed)
		for j := range sourceDraws {
			if got, w := s.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d: Int63 draw %d = %#x, rand.NewSource gives %#x", seed, j, got, w)
			}
		}
	}
}

// variateDraws is the number of variates TestStreamVariatesMatchMathRand
// compares per stream.
const variateDraws = 5000

// drawVariates fills out with n variates of one method of s, as float64
// bits; mean varies over the draws where the method takes one.
func drawVariates(s *Stream, method string, n int) []uint64 {
	out := make([]uint64, n)
	for j := range out {
		var v float64
		switch mean := 1 + float64(j%7); method {
		case "Exponential":
			v = s.Exponential(mean)
		case "Uniform":
			v = s.Uniform()
		case "Geometric":
			v = float64(s.Geometric(mean))
		case "Intn":
			v = float64(s.Intn(1 + j%97))
		case "Bernoulli":
			if s.Bernoulli(mean / 8) {
				v = 1
			}
		}
		out[j] = math.Float64bits(v)
	}
	return out
}

// TestStreamVariatesMatchMathRand checks, for every stream kind, that the
// first variateDraws variates of each method are bit for bit those of a
// stream drawing from rand.NewSource; exponentials are checked batched as
// well, the way internal/sim draws its arrivals and call durations.
func TestStreamVariatesMatchMathRand(t *testing.T) {
	kinds := []struct {
		name string
		kind StreamKind
	}{{"default", StreamDefault}, {"paired", StreamPaired}, {"antithetic", StreamAntithetic}}
	methods := []string{"Exponential", "Uniform", "Geometric", "Intn", "Bernoulli"}
	for _, k := range kinds {
		for m, method := range methods {
			for _, batch := range []int{0, 64} {
				if batch > 0 && method != "Exponential" {
					continue
				}
				seed := SubstreamSeed(int64(k.kind), uint64(m))
				got, want := NewStreamKind(seed, k.kind), newMathRandStream(seed, k.kind)
				got.BatchExponentials(batch)
				want.BatchExponentials(batch)
				g, w := drawVariates(got, method, variateDraws), drawVariates(want, method, variateDraws)
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("%s %s batch %d: variate %d = %v, rand.NewSource gives %v", k.name, method, batch, j,
							math.Float64frombits(g[j]), math.Float64frombits(w[j]))
					}
				}
			}
		}
	}
}

// FuzzStreamSeed checks the first 1,300 outputs of the source against
// rand.NewSource on any seed.
func FuzzStreamSeed(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, zeroSeed, mersenne31, -mersenne31, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var s source
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for j := range 1300 {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: draw %d = %#x, rand.NewSource gives %#x", seed, j, got, w)
			}
		}
	})
}

// BenchmarkSeed compares seeding the package's source with seeding
// math/rand's, on the substream seeds of one 7-cell replication.
func BenchmarkSeed(b *testing.B) {
	seeds := make([]int64, 28)
	for k := range seeds {
		seeds[k] = SubstreamSeed(1, uint64(k))
	}
	b.Run("des", func(b *testing.B) {
		var s source
		for i := range b.N {
			s.Seed(seeds[i%len(seeds)])
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := range b.N {
			s.Seed(seeds[i%len(seeds)])
		}
	})
}
