package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	collide := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			collide++
		}
	}
	if collide > 0 {
		t.Errorf("split children collided %d times", collide)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		c := p.Split()
		out := make([]uint64, 10)
		for i := range out {
			out[i] = c.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	f := func(_ int) bool {
		v := s.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(6)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Uint64n(10)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("value %d frequency %v, want ~0.1", v, frac)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(9)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(rate=2) mean = %v, want 0.5", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 25, 100, 5000} {
		s := New(uint64(100 + mean))
		const n = 20000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			sum += v
			sum2 += v * v
		}
		m := sum / n
		v := sum2/n - m*m
		if math.Abs(m-mean) > 4*math.Sqrt(mean/n)+0.02*mean {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.1 {
			t.Errorf("Poisson(%v) variance = %v", mean, v)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	s := New(12)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := s.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	type tc struct {
		n int64
		p float64
	}
	for _, c := range []tc{{10, 0.5}, {1000, 0.001}, {100000, 0.3}} {
		s := New(uint64(c.n))
		const reps = 20000
		sum := 0.0
		for i := 0; i < reps; i++ {
			sum += float64(s.Binomial(c.n, c.p))
		}
		mean := sum / reps
		want := float64(c.n) * c.p
		tol := 5*math.Sqrt(want*(1-c.p)/reps) + 0.02*want + 0.05
		if math.Abs(mean-want) > tol {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v (tol %v)", c.n, c.p, mean, want, tol)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	s := New(13)
	if got := s.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100,0) = %d", got)
	}
	if got := s.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100,1) = %d", got)
	}
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0,0.5) = %d", got)
	}
}

func TestBinomialNeverExceedsN(t *testing.T) {
	s := New(14)
	for i := 0; i < 2000; i++ {
		if got := s.Binomial(100, 0.15); got < 0 || got > 100 {
			t.Fatalf("Binomial out of range: %d", got)
		}
	}
}

func TestMaxwellEnergyMean(t *testing.T) {
	s := New(15)
	const kT = 0.0253
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.MaxwellEnergy(kT)
	}
	mean := sum / n
	want := 1.5 * kT // <E> = 3/2 kT
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("Maxwell mean energy = %v, want %v", mean, want)
	}
}

func TestMaxwellEnergyPositive(t *testing.T) {
	s := New(16)
	for i := 0; i < 10000; i++ {
		if e := s.MaxwellEnergy(0.0253); e < 0 {
			t.Fatalf("negative Maxwell energy %v", e)
		}
	}
}

func TestWattEnergyMean(t *testing.T) {
	s := New(17)
	// Watt spectrum with a=0.988 MeV, b=2.249/MeV (U-235-like):
	// mean = 3a/2 + a²b/4 ≈ 2.03 MeV.
	const a, b = 0.988, 2.249
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.WattEnergy(a, b)
	}
	mean := sum / n
	want := 1.5*a + a*a*b/4
	if math.Abs(mean-want)/want > 0.03 {
		t.Errorf("Watt mean = %v, want %v", mean, want)
	}
}

func TestLogUniformBounds(t *testing.T) {
	s := New(20)
	for i := 0; i < 10000; i++ {
		v := s.LogUniform(0.01, 100)
		if v < 0.01 || v > 100 {
			t.Fatalf("LogUniform out of bounds: %v", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(23)
	for i := 0; i < 100000; i++ {
		if s.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal()
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Poisson(3)
	}
}

func BenchmarkWattEnergy(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.WattEnergy(0.988, 2.249)
	}
}
