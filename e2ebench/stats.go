package main

import (
	"math"
	"sort"

	"repro/internal/serverless"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p% of the sample
// at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples, clamped to [1, n].
func rank(n int, p float64) int {
	// The epsilon keeps p/100*n from rounding up past an exact rank
	// (99.9/100*10000 is 9990.000000000002 in floating point).
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest of tailPercentiles that has at
// least ten samples strictly beyond its nearest rank, with its value and
// that count of samples beyond it. ok is false when even the median has
// fewer than ten samples beyond it. A percentile with fewer samples
// beyond it is one or two requests, not a tail, and does not repeat
// between runs.
func tailPercentile(sorted []float64) (p, v float64, beyond int, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if b := n - rank(n, p); b >= 10 {
			return p, percentile(sorted, p), b, true
		}
	}
	return 0, 0, 0, false
}

// median of an unsorted sample; the caller's slice is left untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverse CDF, so a draw is a pure function of the uniform it is given.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

// draw maps a uniform u in [0, 1) to a rank.
func (z *zipf) draw(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k < len(z.cdf) && z.cdf[k] == u {
		k++ // SearchFloat64s finds cdf[k] >= u; rank k covers [cdf[k-1], cdf[k])
	}
	return min(k, len(z.cdf)-1)
}

// stratified draws n ranks whose counts match the distribution to
// within one: the i-th draw takes a uniform from [i/n, (i+1)/n), and the
// draws are then shuffled. The seed still decides every draw and the
// order, but each rank's share of a pass is fixed, so a pass costs the
// same whatever the seed.
func (z *zipf) stratified(rng *serverless.TraceRNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = z.draw((float64(i) + rng.Float64()) / float64(n))
	}
	shuffle(rng, n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// shuffle is a Fisher-Yates shuffle driven by rng.
func shuffle(rng *serverless.TraceRNG, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(rng.Uint64()%uint64(i+1)))
	}
}
