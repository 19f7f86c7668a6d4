package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times in 1000 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestRNGIntnRangeAndCoverage(t *testing.T) {
	r := NewRNG(11)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn in 10000 tries", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(17)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestZipfWeightsNormalizedAndMonotone(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 2} {
		w := ZipfWeights(100, s)
		var sum float64
		for i, wi := range w {
			sum += wi
			if i > 0 && wi > w[i-1]+1e-15 {
				t.Fatalf("s=%g: weights not monotone at %d", s, i)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("s=%g: weights sum to %g", s, sum)
		}
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	w := ZipfWeights(10, 0)
	for _, wi := range w {
		if math.Abs(wi-0.1) > 1e-12 {
			t.Fatalf("s=0 weight %g, want 0.1", wi)
		}
	}
}

func TestZipfSamplerMatchesWeights(t *testing.T) {
	z := NewZipf(20, 1)
	r := NewRNG(19)
	counts := make([]int, 20)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for rank := 0; rank < 20; rank++ {
		got := float64(counts[rank]) / draws
		want := z.Prob(rank)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: frequency %g, probability %g", rank, got, want)
		}
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z := NewZipf(5, 1)
	if z.Prob(-1) != 0 || z.Prob(5) != 0 {
		t.Fatal("out-of-range Prob must be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0=%g", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1=%g", q)
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median=%g", q)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileWithinBounds(t *testing.T) {
	err := quick.Check(func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw%101) / 100
		v := Quantile(xs, q)
		lo, hi := slices.Min(xs), slices.Max(xs)
		return v >= lo-1e-9 && v <= hi+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
