package stats

import (
	"fmt"
	"math"
	"sort"
)

// Ranks returns the 1-based ranks of xs, assigning tied values their average
// rank (the convention Spearman correlation expects).
func Ranks(xs []float64) []float64 {
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, len(xs))
	for i, v := range xs {
		s[i] = kv{v, i}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j+1 < len(s) && s[j+1].v == s[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[s[k].i] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank-correlation coefficient of two paired
// samples in [-1, 1]. Samples shorter than two elements, or with a constant
// side, correlate trivially and return 1. Mismatched lengths are an error.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: spearman: %d vs %d samples", len(a), len(b))
	}
	n := float64(len(a))
	if n < 2 {
		return 1, nil
	}
	ra, rb := Ranks(a), Ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1, nil
	}
	return cov / math.Sqrt(va*vb), nil
}
