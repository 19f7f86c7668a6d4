package stats

import (
	"math"
	"testing"
)

// searchCDF is the sampler's oracle: the binary search of the CDF that
// Zipf.Sample ran before it had a guide table.
func searchCDF(cdf []float64, x float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkRank fails t unless z's guided rank of x is the oracle's.
func checkRank(t *testing.T, z *Zipf, x float64) {
	t.Helper()
	if got, want := z.rank(x), searchCDF(z.cdf, x); got != want {
		t.Fatalf("n=%d s=%g x=%v: guide table gives rank %d, binary search %d", z.N(), z.S(), x, got, want)
	}
}

// TestZipfSampleMatchesBinarySearch: on every cutpoint boundary j/n and
// the float just below it, on every CDF value and its neighbours, just
// below 1 and on seeded draws, the guide table gives the binary
// search's rank; Sample consumes one Float64 and returns that rank.
func TestZipfSampleMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1000, 2000} {
		for _, s := range []float64{0, 0.5, 0.7, 0.9, 1, 1.1, 2, 3} {
			z := NewZipf(n, s)
			xs := []float64{0, math.Nextafter(1, 0)}
			for j := 1; j <= n; j++ {
				b := float64(j) / float64(n)
				xs = append(xs, b, math.Nextafter(b, 0))
			}
			for _, c := range z.cdf {
				xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for _, x := range xs {
				if x >= 0 && x < 1 {
					checkRank(t, z, x)
				}
			}
			r, twin := NewRNG(uint64(n)*31+uint64(s*10)), NewRNG(uint64(n)*31+uint64(s*10))
			for i := 0; i < 2000; i++ {
				if got, want := z.Sample(r), searchCDF(z.cdf, twin.Float64()); got != want {
					t.Fatalf("n=%d s=%g draw %d: Sample %d, binary search %d", n, s, i, got, want)
				}
			}
		}
	}
}

// FuzzZipfSample: for any n in [1, 50000], s in [0, 3] and x in [0, 1),
// the guide table gives the rank the binary search of the CDF gives.
// The committed seeds in testdata/fuzz/FuzzZipfSample hold n=1, s=0,
// draws on and just below cutpoint boundaries, just below 1, and in the
// tail of n=50000, s=3, where ranks carry probabilities below 1e-13.
func FuzzZipfSample(f *testing.F) {
	f.Add(uint32(10), 1.0, 0.5)
	f.Fuzz(func(t *testing.T, nRaw uint32, s, x float64) {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		n := 1 + int(nRaw%50000)
		if s = math.Abs(s); s > 3 {
			s = math.Mod(s, 3)
		}
		x = math.Abs(math.Mod(x, 1))
		checkRank(t, NewZipf(n, s), x)
	})
}
