package stats

import (
	"math/rand"
	"testing"
)

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64()*50 + 10
			acc.Add(xs[i])
		}
		if acc.N() != n {
			t.Fatalf("N = %d, want %d", acc.N(), n)
		}
		if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
			t.Fatalf("Mean: online %g vs batch %g", acc.Mean(), Mean(xs))
		}
		if !almostEqual(acc.Variance(), Variance(xs), 1e-9) {
			t.Fatalf("Variance: online %g vs batch %g", acc.Variance(), Variance(xs))
		}
		if !almostEqual(acc.CoV(), CoV(xs), 1e-9) {
			t.Fatalf("CoV: online %g vs batch %g", acc.CoV(), CoV(xs))
		}
		if acc.Min() != Min(xs) || acc.Max() != Max(xs) {
			t.Fatalf("Min/Max: online (%g, %g) vs batch (%g, %g)", acc.Min(), acc.Max(), Min(xs), Max(xs))
		}
		if !almostEqual(acc.Sum(), Sum(xs), 1e-9) {
			t.Fatalf("Sum: online %g vs batch %g", acc.Sum(), Sum(xs))
		}
	}
}

func TestAccumulatorZeroValue(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || acc.Mean() != 0 || acc.Variance() != 0 || acc.CoV() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
	acc.Add(5)
	if acc.N() != 1 || acc.Mean() != 5 || acc.Variance() != 0 {
		t.Fatalf("singleton accumulator: N=%d mean=%g var=%g", acc.N(), acc.Mean(), acc.Variance())
	}
	if acc.Min() != 5 || acc.Max() != 5 {
		t.Fatal("singleton min/max should equal the sample")
	}
}
