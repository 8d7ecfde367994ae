package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile for
// it to count as measured rather than extrapolated: p99 needs at least 1000
// samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) values
// and whether at least minBeyond samples lie above that rank.
func quantile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	// The epsilon keeps q·n from rounding up past an exact rank (0.99·1000
	// is 990.0000000000001 in float64).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(n, rank))
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the median of values, averaging the middle pair for an
// even count (Python's statistics.median).
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), the
// rule run-to-run spreads are judged by. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(n-1, i*m/4))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// mean returns the arithmetic mean of values (NaN when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
