package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"uniform", []float64{5, 5, 5, 5}, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); got != c.want {
				t.Fatalf("Mean(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1e16 + many small values: naive summation drops the small terms.
	xs := make([]float64, 1001)
	xs[0] = 1e16
	for i := 1; i < len(xs); i++ {
		xs[i] = 1
	}
	if got, want := Sum(xs), 1e16+1000; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %g, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance of singleton = %g, want 0", got)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("CoV of constant sample = %g, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := CoV(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Fatalf("CoV = %g, want 0.4", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Fatalf("CoV with zero mean = %g, want 0", got)
	}
}

func TestCoVScaleInvariance(t *testing.T) {
	// CoV(c·x) == CoV(x) for any c > 0: the property that lets Sieve compare
	// dispersion across kernels with very different instruction magnitudes.
	f := func(raw []float64, scale float64) bool {
		if len(raw) < 2 {
			return true
		}
		c := math.Abs(scale)
		if c < 1e-3 || c > 1e3 || math.IsNaN(c) {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			x := math.Mod(math.Abs(v), 1000) + 1 // keep positive, bounded
			xs[i] = x
			scaled[i] = c * x
		}
		return almostEqual(CoV(xs), CoV(scaled), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedHarmonicMean(t *testing.T) {
	// Equal weights over {1, 3}: harmonic mean = 2/(1/1 + 1/3) = 1.5.
	got, err := WeightedHarmonicMean([]float64{1, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("WeightedHarmonicMean = %g, want 1.5", got)
	}
	// Zero-weight entries are ignored even if non-positive.
	got, err = WeightedHarmonicMean([]float64{2, -7}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("WeightedHarmonicMean with zero weight = %g, want 2", got)
	}
	if _, err := WeightedHarmonicMean([]float64{0}, []float64{1}); err == nil {
		t.Fatal("want error on non-positive value with weight")
	}
	if _, err := WeightedHarmonicMean([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("want error on zero total weight")
	}
}

func TestWeightedHarmonicMeanScaleInvariantInWeights(t *testing.T) {
	// Multiplying all weights by a constant must not change the result —
	// the estimator normalizes internally.
	xs := []float64{1.2, 3.4, 0.9, 14}
	ws := []float64{1, 2, 3, 4}
	a, err := WeightedHarmonicMean(xs, ws)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(ws))
	for i, w := range ws {
		scaled[i] = 17.5 * w
	}
	b, err := WeightedHarmonicMean(xs, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, b, 1e-12) {
		t.Fatalf("scale changed result: %g vs %g", a, b)
	}
}

func TestHarmonicMeanBounds(t *testing.T) {
	// HM ≤ GM ≤ AM for positive samples.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 + 0.001
		}
		hm, err := HarmonicMean(xs)
		if err != nil {
			t.Fatal(err)
		}
		var logSum float64
		for _, x := range xs {
			logSum += math.Log(x)
		}
		gm := math.Exp(logSum / float64(n))
		am := Mean(xs)
		if hm > gm*(1+1e-9) || gm > am*(1+1e-9) {
			t.Fatalf("mean inequality violated: HM=%g GM=%g AM=%g", hm, gm, am)
		}
	}
}

func TestHarmonicMeanErrors(t *testing.T) {
	if _, err := HarmonicMean(nil); err == nil {
		t.Fatal("want error on empty input")
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Fatal("want error on zero element")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %g", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %g", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 35 {
		t.Fatalf("P50 = %g, want 35", got)
	}
	got, err = Percentile(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("P0 = %g, want 15", got)
	}
	got, err = Percentile(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("P100 = %g, want 50", got)
	}
	// Interpolation: P25 of [10, 20] is 12.5.
	got, err = Percentile([]float64{10, 20}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12.5 {
		t.Fatalf("P25 = %g, want 12.5", got)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("want error on empty input")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("want error on out-of-range percentile")
	}
	// Input must not be mutated.
	orig := []float64{9, 1, 5}
	if _, err := Percentile(orig, 50); err != nil {
		t.Fatal(err)
	}
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Fatalf("Percentile mutated its input: %v", orig)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Median = %g, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %g, want 0", got)
	}
}
