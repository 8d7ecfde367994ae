package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the reference: nearest-rank quantile on sorted data.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramQuantileAccuracy pins the log-bucketed quantile estimates
// against exact percentiles on known data: the bucket growth factor bounds
// the relative error, so every estimate must land within 10% of the exact
// percentile across three very different distributions.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string][]float64{
		"uniform":   make([]float64, 10000),
		"lognormal": make([]float64, 10000),
		"bimodal":   make([]float64, 10000),
	}
	for i := range distributions["uniform"] {
		distributions["uniform"][i] = 1e-3 + 0.5*rng.Float64()
		distributions["lognormal"][i] = math.Exp(rng.NormFloat64() - 6) // ~2.5ms median
		if i%2 == 0 {
			distributions["bimodal"][i] = 1e-4 * (1 + 0.1*rng.Float64())
		} else {
			distributions["bimodal"][i] = 2e-1 * (1 + 0.1*rng.Float64())
		}
	}
	for name, data := range distributions {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range data {
				h.Observe(v)
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999} {
				exact := exactQuantile(sorted, q)
				got := h.Quantile(q)
				if rel := math.Abs(got-exact) / exact; rel > 0.10 {
					t.Errorf("q=%g: got %g, exact %g (rel err %.1f%%)", q, got, exact, 100*rel)
				}
			}
			if h.Count() != uint64(len(data)) {
				t.Fatalf("count = %d", h.Count())
			}
			var sum float64
			for _, v := range data {
				sum += v
			}
			if math.Abs(h.Sum()-sum)/sum > 1e-9 {
				t.Fatalf("sum = %g, want %g", h.Sum(), sum)
			}
			if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
				t.Fatalf("min/max = %g/%g, want %g/%g", h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
			}
		})
	}
}

// TestHistogramEdgeCases covers the empty histogram, a single observation,
// and out-of-range values.
func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read all zeros")
	}

	h.Observe(0.125)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0.125 {
			t.Fatalf("single-value quantile(%g) = %g (min/max clamp should pin it)", q, got)
		}
	}

	// Values outside the bucket range must not panic and must clamp sanely.
	h2 := NewHistogram()
	h2.Observe(0)
	h2.Observe(-1)
	h2.Observe(1e300)
	h2.Observe(math.NaN())
	if h2.Count() != 4 {
		t.Fatalf("count = %d", h2.Count())
	}
	if got := h2.Quantile(0.99); got > 1e300 {
		t.Fatalf("quantile beyond observed max: %g", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines;
// under -race this validates the lock-free counters, and the totals must be
// exact regardless of interleaving.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(1e-4 * (1 + rng.Float64()))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if h.Min() < 1e-4 || h.Max() > 2e-4 {
		t.Fatalf("min/max outside observed range: %g/%g", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q < 1e-4 || q > 2e-4 {
		t.Fatalf("median outside observed range: %g", q)
	}
}

// TestHistogramEmptyQuantileDocumentedZero pins the empty-histogram contract:
// every read accessor returns exactly 0 on a fresh histogram, the zero value,
// and a nil receiver — never a bucket-midpoint artifact.
func TestHistogramEmptyQuantileDocumentedZero(t *testing.T) {
	for name, h := range map[string]*Histogram{
		"fresh": NewHistogram(),
		"zero":  {},
		"nil":   nil,
	} {
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("%s histogram Quantile(%g) = %g, want exactly 0", name, q, got)
			}
		}
		if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
			t.Errorf("%s histogram non-zero accessors: count=%d sum=%g min=%g max=%g",
				name, h.Count(), h.Sum(), h.Min(), h.Max())
		}
		if cum, total := h.Cumulative([]float64{0.1, 1}); total != 0 || cum[0] != 0 || cum[1] != 0 {
			t.Errorf("%s histogram Cumulative not all-zero: %v total=%d", name, cum, total)
		}
	}
	// Observing into the zero value and a nil receiver must be a no-op, not a
	// panic.
	var zero Histogram
	zero.Observe(1)
	var nilH *Histogram
	nilH.Observe(1)
	nilH.ObserveDuration(time.Second)
	if zero.Count() != 0 || nilH.Count() != 0 {
		t.Fatalf("zero/nil histogram recorded observations")
	}
}

// TestHistogramCumulative checks the explicit-bucket downsampling: counts land
// at the first bound ≥ their log bucket's upper edge, the ladder is cumulative,
// and values past the last bound show up only in the total (+Inf bucket).
func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(0.001) // well under the first bound
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.5) // between bounds 0.1 and 1
	}
	for i := 0; i < 3; i++ {
		h.Observe(100) // past the last bound → +Inf only
	}
	bounds := []float64{0.1, 1, 10}
	cum, total := h.Cumulative(bounds)
	if total != 18 {
		t.Fatalf("total = %d, want 18", total)
	}
	if cum[0] != 10 {
		t.Fatalf("cum[0.1] = %d, want 10", cum[0])
	}
	if cum[1] != 15 {
		t.Fatalf("cum[1] = %d, want 15", cum[1])
	}
	if cum[2] != 15 {
		t.Fatalf("cum[10] = %d, want 15 (100s only in +Inf)", cum[2])
	}
	// Monotone non-decreasing ladder, and cum ≤ total throughout.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("ladder not monotone: %v", cum)
		}
	}
	if cum[len(cum)-1] > total {
		t.Fatalf("cum exceeds total: %v > %d", cum, total)
	}
}
