package ctmc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// referenceInflow is inflow in its own arithmetic, kept apart from both of
// inflow's paths so that they are checked against sums they do not share:
// state by state, it sets x[q] from the first len(from) % 4 sources, or to 0
// if there are none, and adds each later group of four sources, summed
// alone, in source order. Every product and sum goes through a float64
// conversion, so no build fuses a multiply–add into it.
func referenceInflow(x, pi []float64, from []jump) {
	w := len(x)
	head := len(from) % 4
	term := func(j jump, q int) float64 { return float64(j.rate * pi[int(j.from)*w+q]) }
	for q := range x {
		var sum float64
		for i, j := range from[:head] {
			if i == 0 {
				sum = term(j, q)
			} else {
				sum = float64(sum + term(j, q))
			}
		}
		for group := from[head:]; len(group) > 0; group = group[4:] {
			s := term(group[0], q)
			for _, j := range group[1:4] {
				s = float64(s + term(j, q))
			}
			sum = float64(sum + s)
		}
		x[q] = sum
	}
}

// inflowCase decodes fuzz bytes into the inflow of a line: its width w,
// 1 to 130 (data[0]), and 0 to 12 sources (data[1]) among 1 to 8 lines of pi.
// The later bytes pick the number of lines, then each source's line and
// rate, then every entry of pi, and a generator seeded from all the bytes
// takes over where they run out. An entry of pi may be 0, −0, negative (a
// line that is not fitted holds such values until the rescale), subnormal,
// or at or near ±MaxFloat64, so the products and sums can overflow to ±Inf
// and meet as NaN. A rate is not negative and finite, as NewGenerator
// requires, and may be 0, subnormal or up to MaxFloat64.
func inflowCase(data []byte) (w int, pi []float64, from []jump) {
	var head [2]byte
	copy(head[:], data)
	w = 1 + int(head[0])%130
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewPCG(h.Sum64(), uint64(len(data))))
	rest := data[min(2, len(data)):]
	next := func() int {
		if len(rest) == 0 {
			return int(rng.Uint32() % 256)
		}
		b := rest[0]
		rest = rest[1:]
		return int(b)
	}
	lines := 1 + next()%8
	from = make([]jump, int(head[1])%13)
	for j := range from {
		from[j].from = int32(next() % lines)
		switch next() % 8 {
		case 0:
		case 1:
			from[j].rate = math.SmallestNonzeroFloat64 * float64(1+rng.IntN(1<<20))
		case 2:
			from[j].rate = 1
		case 3:
			from[j].rate = math.MaxFloat64
		case 4:
			from[j].rate = math.Ldexp(1+rng.Float64(), 900+rng.IntN(123))
		default:
			from[j].rate = math.Ldexp(1+rng.Float64(), rng.IntN(40)-20)
		}
	}
	pi = make([]float64, lines*w)
	for i := range pi {
		sign := 1.0
		if rng.IntN(3) == 0 {
			sign = -1
		}
		switch next() % 12 {
		case 0:
		case 1:
			pi[i] = math.Copysign(0, -1)
		case 2:
			pi[i] = sign * math.SmallestNonzeroFloat64 * float64(1+rng.IntN(1<<20))
		case 3:
			pi[i] = sign * math.MaxFloat64
		case 4:
			pi[i] = sign * math.MaxFloat64 * (1 - rng.Float64()/1e6)
		case 5:
			pi[i] = -math.Ldexp(1+rng.Float64(), rng.IntN(60)-50)
		default:
			pi[i] = math.Ldexp(1+rng.Float64(), rng.IntN(60)-50)
		}
	}
	return w, pi, from
}

// inflowSeeds returns the cases of TestInflowKernelMatchesReference and the
// seed corpus of FuzzInflowKernel: widths 1, 3, 4, 5, 15, 16, 17, 31, 32 and
// 101, around the kernel's least width and its block of sixteen, each with
// 0 to 9 sources, with their values drawn from the seeded generator alone
// and with bytes that cycle through every kind of rate and entry; and at
// each width, every product −0 (rates 0 on negative entries) with 4 and 5
// sources, whose inflow is 0 + (−0) = +0 and −0 + (−0) = −0.
func inflowSeeds() [][]byte {
	var seeds [][]byte
	for _, w := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 101} {
		for sources := range 10 {
			seeds = append(seeds, []byte{byte(w - 1), byte(sources)})
			cycle := []byte{byte(w - 1), byte(sources), 7}
			for i := range 2*sources + 12*w {
				cycle = append(cycle, byte(i*5))
			}
			seeds = append(seeds, cycle)
		}
		for _, sources := range []int{4, 5} {
			negativeZeros := []byte{byte(w - 1), byte(sources), 0}
			negativeZeros = append(negativeZeros, make([]byte, 2*sources)...)
			for range w {
				negativeZeros = append(negativeZeros, 5)
			}
			seeds = append(seeds, negativeZeros)
		}
	}
	return seeds
}

// inflowMismatch decodes data into the inflow of a line (see inflowCase) and
// sets it by inflowLoop and, on a line of width 16 or more on a CPU that has
// it, by inflowKernel. Each must give what inflowError requires and leave pi
// as it was.
func inflowMismatch(data []byte) error {
	w, pi, from := inflowCase(data)
	want := make([]float64, w)
	referenceInflow(want, pi, from)
	paths := []struct {
		name  string
		ready bool
		set   func(x, pi []float64, from []jump)
	}{
		{"Go loop", true, inflowLoop},
		{"AVX2 kernel", haveKernel && w >= 16, inflowKernel},
	}
	for _, p := range paths {
		if !p.ready {
			continue
		}
		in := slices.Clone(pi)
		if err := inflowError(func(x []float64) { p.set(x, in, from) }, want); err != nil {
			return fmt.Errorf("%s, width %d, sources %v: %v", p.name, w, from, err)
		}
		if !slices.Equal(bitsOf(in), bitsOf(pi)) {
			return fmt.Errorf("%s, width %d, %d sources: changed pi", p.name, w, len(from))
		}
	}
	return nil
}

// inflowError calls set on an x of the width of want that lies in the middle
// of a larger buffer and starts at a value that no sum gives. Then x must
// equal want bit for bit, with NaN wherever want has NaN, in any payload, and
// the buffer around it must be as it was. The pad is a block of the kernel
// wide, so a kernel that wrongly got a narrower line writes inside the buffer,
// where the check sees it.
func inflowError(set func(x []float64), want []float64) error {
	const pad, mark = 16, -12345.678
	w := len(want)
	buf := make([]float64, w+2*pad)
	for i := range buf {
		buf[i] = mark
	}
	set(buf[pad : pad+w])
	for i, x := range buf {
		q := i - pad
		switch {
		case q < 0 || q >= w:
			if x != mark {
				return fmt.Errorf("wrote %v at x[%d]", x, q)
			}
		case math.Float64bits(x) != math.Float64bits(want[q]) && !(math.IsNaN(x) && math.IsNaN(want[q])):
			return fmt.Errorf("x[%d] = %v (%#x), reference %v (%#x)", q, x, math.Float64bits(x), want[q], math.Float64bits(want[q]))
		}
	}
	return nil
}

// bitsOf returns the bits of every entry of v.
func bitsOf(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// TestInflowKernelMatchesReference checks both paths of inflow against
// referenceInflow on every case of inflowSeeds, and logs whether the AVX2
// kernel ran. It then checks inflow itself, which picks the path, on the
// lines of chains of widths 1 to 20, six lines each jumping to every other:
// a line narrower than 16 must not reach the kernel, which writes sixteen
// states at a time.
func TestInflowKernelMatchesReference(t *testing.T) {
	for _, seed := range inflowSeeds() {
		if err := inflowMismatch(seed); err != nil {
			t.Fatal(err)
		}
	}
	const lines = 6
	rng := rand.New(rand.NewPCG(1, 2))
	for w := 1; w <= 20; w++ {
		rows := make([]float64, 2*w)
		for q := range w - 1 {
			rows[q], rows[w+q+1] = 1, 2
		}
		g, err := NewGenerator(lines*w, w, rows, func(l int, jump func(int, float64)) (int, int) {
			for to := range lines {
				jump(to, float64(1+(l+to)%5)/3)
			}
			return 0, 1
		})
		if err != nil {
			t.Fatal(err)
		}
		pi := make([]float64, lines*w)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		want := make([]float64, w)
		for l := range lines {
			referenceInflow(want, pi, g.from[g.fromStart[l]:g.fromStart[l+1]])
			if err := inflowError(func(x []float64) { g.inflow(pi, l, x) }, want); err != nil {
				t.Fatalf("width %d, line %d: %v", w, l, err)
			}
		}
	}
	if haveKernel {
		t.Log("checked the Go loop and the AVX2 kernel")
	} else {
		t.Log("checked the Go loop; this CPU has no AVX2, so inflow has no kernel")
	}
}

// FuzzInflowKernel checks both paths of inflow against referenceInflow on
// random lines: width 1 to 130, 0 to 12 sources, and rates and entries of
// pi that include 0, −0, negatives, subnormals and values near MaxFloat64
// (see inflowCase and inflowMismatch).
func FuzzInflowKernel(f *testing.F) {
	for _, seed := range inflowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := inflowMismatch(data); err != nil {
			t.Fatal(err)
		}
	})
}
