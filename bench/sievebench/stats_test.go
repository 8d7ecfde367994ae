package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRankAndSupport(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{1000, 0.99, 990, true},  // rank 990, exactly ten beyond
		{999, 0.99, 990, false},  // rank ⌈989.01⌉ = 990, nine beyond
		{1200, 0.99, 1188, true}, // twelve beyond
		{100, 0.50, 50, true},
		{101, 0.50, 51, true},
		{1, 0.50, 1, false},
		{10, 0.01, 1, false}, // nine beyond
		{11, 0.01, 1, true},
	} {
		got, ok := quantile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.supported {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := quantile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("quantile(empty) = %g, %v; want NaN, false", v, ok)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), whose spread the benchmark's
// steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
