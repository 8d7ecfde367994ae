// Package stats provides the descriptive-statistics substrate used across
// the Sieve reproduction: means, variances, coefficients of variation,
// weighted arithmetic and harmonic means, percentiles and histograms.
//
// All functions operate on float64 slices and are deterministic. Functions
// that are undefined on empty input return 0 rather than NaN so that callers
// aggregating over possibly-empty strata do not have to special-case; the
// *Checked variants report validity explicitly where the distinction matters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensated summation so that large
// profiles (millions of instruction counts) do not lose low-order bits.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// matching the paper's definition of σ as "the average squared differences
// with the mean". Returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - mean
		acc += d * d
	}
	return acc / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the coefficient of variation σ/μ of xs — the dispersion metric
// Sieve uses to assign kernels to tiers. Returns 0 for empty input or when
// the mean is 0 (a degenerate stratum with no work has no dispersion).
func CoV(xs []float64) float64 {
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(mean)
}

// WeightedHarmonicMean returns 1 / Σ (w_i / x_i) with the weights normalized
// to sum to one. This is the estimator Sieve uses to combine per-stratum IPC
// values into an application-level IPC (Section III-D of the paper).
// It returns an error for mismatched lengths, non-positive values with
// non-zero weight, negative weights, or zero total weight.
func WeightedHarmonicMean(xs, ws []float64) (float64, error) {
	if len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: weighted harmonic mean: %d values vs %d weights", len(xs), len(ws))
	}
	var wsum float64
	for i, w := range ws {
		if w < 0 {
			return 0, fmt.Errorf("stats: weighted harmonic mean: negative weight %g at index %d", w, i)
		}
		wsum += w
	}
	if wsum == 0 {
		return 0, fmt.Errorf("stats: weighted harmonic mean: zero total weight")
	}
	var acc float64
	for i, x := range xs {
		if ws[i] == 0 {
			continue
		}
		if x <= 0 {
			return 0, fmt.Errorf("stats: weighted harmonic mean: non-positive value %g with weight %g at index %d", x, ws[i], i)
		}
		acc += (ws[i] / wsum) / x
	}
	if acc == 0 {
		return 0, fmt.Errorf("stats: weighted harmonic mean: all weights vanished")
	}
	return 1 / acc, nil
}

// HarmonicMean returns the unweighted harmonic mean of xs. Non-positive
// entries yield an error. The paper reports harmonic-mean speedups (Fig. 6
// and Fig. 7), which is the convention for averaging ratios.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: harmonic mean of empty slice")
	}
	var acc float64
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: harmonic mean: non-positive value %g at index %d", x, i)
		}
		acc += 1 / x
	}
	return float64(len(xs)) / acc, nil
}

// Min returns the minimum of xs, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns an error for empty input
// or p outside [0, 100]. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g outside [0, 100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs, or 0 for empty input.
func Median(xs []float64) float64 {
	m, err := Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return m
}
