package stats

import (
	"fmt"
	"math"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. The paper uses Zipf distributions both for term
// frequencies inside a category vocabulary and for assigning query
// demand across peers ("some peers are more demanding than others").
//
// Sample draws in O(1) expected time by the cutpoint method: guide[j]
// is the first rank whose CDF value, scaled by n and truncated, reaches
// j, so the rank a draw x needs is never before guide[int(x*n)], and a
// short walk from there finds it. It returns the rank a binary search
// of the CDF returns for the same x.
type Zipf struct {
	cdf   []float64
	guide []int32
	s     float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics on
// n <= 0 or s < 0; s == 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) *Zipf {
	cdf := ZipfWeights(n, s)
	var acc float64
	for i, wi := range cdf {
		acc += wi
		cdf[i] = acc
	}
	cdf[n-1] = 1 // guard against floating point drift
	// A draw x < 1 scales to int(x*n) < n: x*n rounds to at most the
	// float below n. cdf[n-1]*n == n ends every scan.
	guide := make([]int32, n)
	m, i := float64(n), 0
	for j := range guide {
		for int(cdf[i]*m) < j {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, s: s}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(r *RNG) int { return z.rank(r.Float64()) }

// rank returns the first rank whose CDF value reaches x, for x in
// [0,1). The cutpoint starts the walk at or before that rank: the CDF
// does not decrease before its last entry, which is 1, so cdf[i] >= x
// implies int(cdf[i]*n) >= int(x*n).
func (z *Zipf) rank(x float64) int {
	i := int(z.guide[int(x*float64(len(z.cdf)))])
	for z.cdf[i] < x {
		i++
	}
	return i
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// ZipfWeights returns n normalized weights with weight(i) ∝ 1/(i+1)^s.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("stats: ZipfWeights with n=%d", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("stats: ZipfWeights with s=%g < 0", s))
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
