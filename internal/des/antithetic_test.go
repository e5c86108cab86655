package des

import (
	"math"
	"testing"
)

func TestDefaultKindMatchesHistoricStream(t *testing.T) {
	// NewStreamKind(seed, StreamDefault) must be draw-identical to
	// NewStream(seed): the zero kind is the historic behaviour existing
	// seeds rely on.
	a := NewStream(99)
	b := NewStreamKind(99, StreamDefault)
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			if x, y := a.Uniform(), b.Uniform(); x != y {
				t.Fatalf("draw %d: Uniform %v != %v", i, x, y)
			}
		case 1:
			if x, y := a.Exponential(3), b.Exponential(3); x != y {
				t.Fatalf("draw %d: Exponential %v != %v", i, x, y)
			}
		case 2:
			if x, y := a.Geometric(4), b.Geometric(4); x != y {
				t.Fatalf("draw %d: Geometric %v != %v", i, x, y)
			}
		case 3:
			if x, y := a.Bernoulli(0.3), b.Bernoulli(0.3); x != y {
				t.Fatalf("draw %d: Bernoulli %v != %v", i, x, y)
			}
		case 4:
			if x, y := a.Intn(17), b.Intn(17); x != y {
				t.Fatalf("draw %d: Intn %v != %v", i, x, y)
			}
		}
	}
}

func TestAntitheticPairComplementsEveryDraw(t *testing.T) {
	// The pair members consume complementary uniforms draw for draw, even
	// when the variate types are interleaved — every inversion-mode variate
	// consumes exactly one underlying draw.
	p := NewStreamKind(7, StreamPaired)
	a := NewStreamKind(7, StreamAntithetic)
	if p.kind != StreamPaired || a.kind != StreamAntithetic {
		t.Fatalf("kinds = %v, %v", p.kind, a.kind)
	}
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			u, v := p.Uniform(), a.Uniform()
			if math.Abs((1-u)-v) > 1e-15 {
				t.Fatalf("draw %d: uniforms %v and %v are not complements", i, u, v)
			}
		case 1:
			// Exponentials from complementary uniforms satisfy
			// exp(-x/m) + exp(-y/m) = (1-u) + u = 1.
			x, y := p.Exponential(2), a.Exponential(2)
			if s := math.Exp(-x/2) + math.Exp(-y/2); math.Abs(s-1) > 1e-12 {
				t.Fatalf("draw %d: exponential pair survival sum = %v, want 1", i, s)
			}
		case 2:
			// Complementary draws keep the pair synchronized through integer
			// variates too: both must consume exactly one draw.
			p.Intn(5)
			a.Intn(5)
		case 3:
			p.Geometric(3)
			a.Geometric(3)
		}
	}
}

func TestAntitheticExponentialsAreNegativelyCorrelated(t *testing.T) {
	p := NewStreamKind(11, StreamPaired)
	a := NewStreamKind(11, StreamAntithetic)
	const n = 10000
	var sx, sy, sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		x, y := p.Exponential(1), a.Exponential(1)
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
		syy += y * y
	}
	mx, my := sx/n, sy/n
	cov := sxy/n - mx*my
	rho := cov / math.Sqrt((sxx/n-mx*mx)*(syy/n-my*my))
	// The theoretical antithetic correlation of unit exponentials is
	// 1 - pi^2/6 ≈ -0.645; allow generous sampling slack.
	if rho > -0.5 {
		t.Errorf("antithetic exponential correlation = %v, want strongly negative", rho)
	}
}

func TestInversionVariatesStayInRange(t *testing.T) {
	for _, kind := range []StreamKind{StreamPaired, StreamAntithetic} {
		s := NewStreamKind(5, kind)
		for i := 0; i < 5000; i++ {
			if u := s.Uniform(); u < 0 || u >= 1 {
				t.Fatalf("kind %v: Uniform out of [0,1): %v", kind, u)
			}
			if x := s.Exponential(2); x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Fatalf("kind %v: Exponential out of range: %v", kind, x)
			}
			if g := s.Geometric(4); g < 1 {
				t.Fatalf("kind %v: Geometric below 1: %d", kind, g)
			}
			if k := s.Intn(9); k < 0 || k >= 9 {
				t.Fatalf("kind %v: Intn out of [0,9): %d", kind, k)
			}
		}
	}
}

func TestInversionMomentsMatchDistributions(t *testing.T) {
	// The inversion samplers must still produce the right distributions:
	// check means of the paired kind against the targets.
	s := NewStreamKind(3, StreamPaired)
	const n = 200000
	var sumExp, sumGeo, sumU float64
	for i := 0; i < n; i++ {
		sumExp += s.Exponential(2.5)
		sumGeo += float64(s.Geometric(4))
		sumU += s.Uniform()
	}
	if m := sumExp / n; math.Abs(m-2.5) > 0.05 {
		t.Errorf("inversion exponential mean = %v, want 2.5", m)
	}
	if m := sumGeo / n; math.Abs(m-4) > 0.1 {
		t.Errorf("inversion geometric mean = %v, want 4", m)
	}
	if m := sumU / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("inversion uniform mean = %v, want 0.5", m)
	}
}
