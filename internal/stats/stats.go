// Package stats provides the small statistical toolkit used by the
// experiment drivers: summary statistics, confidence intervals,
// histograms, and a geometric mean for normalized-IPC style aggregates.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (all values must be positive),
// or 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (stddev/mean), or 0 if the
// mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quartiles returns the three cut points that divide xs into four
// groups, by the exclusive method of Python's
// statistics.quantiles(xs, n=4), the one `bench/run.sh --agree` uses.
// The middle cut is the median. It panics on fewer than two values.
func Quartiles(xs []float64) [3]float64 {
	if len(xs) < 2 {
		panic("stats: Quartiles of fewer than two values")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q
}

// CI95 returns the half-width of a 95% confidence interval for the mean
// of xs, using the normal approximation (z = 1.96). With the small sample
// counts used in the experiments (5 seeds, as in the paper) this is an
// approximation, which is fine for the error bars we report.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		CI95:   CI95(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g ±%.3g",
		s.N, s.Mean, s.StdDev, s.Min, s.Max, s.CI95)
}

// Histogram is a fixed-width bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	Bins     []int
	Under    int // samples below Lo
	Over     int // samples at or above Hi
	binWidth float64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if hi <= lo || n <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n),
		binWidth: (hi - lo) / float64(n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Bins) { // float edge case at the upper bound
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// RatioTo returns xs scaled so that the element at base index is 1.0.
// Used for "normalized to unencoded" style series.
func RatioTo(xs []float64, base int) []float64 {
	if base < 0 || base >= len(xs) {
		panic("stats: RatioTo base out of range")
	}
	b := xs[base]
	out := make([]float64, len(xs))
	for i, x := range xs {
		if b == 0 {
			out[i] = 0
			continue
		}
		out[i] = x / b
	}
	return out
}
