package stats

import (
	"math/rand"
	"testing"
)

func TestNewHistogramBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := NewHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 5 {
		t.Fatalf("bins = %d, want 5", len(h.Counts))
	}
	if got := sumCounts(h); got != len(xs) {
		t.Fatalf("counts sum to %d, want %d", got, len(xs))
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Fatalf("bin %d count = %d, want 2", i, c)
		}
	}
}

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Fatal("want error on empty sample")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Fatal("want error on zero bins")
	}
}

func TestNewHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 1 || h.Counts[0] != 3 {
		t.Fatalf("degenerate histogram = %+v", h)
	}
}

func TestHistogramMaxLandsInLastBin(t *testing.T) {
	h, err := NewHistogram([]float64{0, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("max not in last bin: %v", h.Counts)
	}
	if got := h.Bin(10); got != 3 {
		t.Fatalf("Bin(max) = %d, want 3", got)
	}
	if got := h.Bin(-5); got != 0 {
		t.Fatalf("Bin below range = %d, want 0", got)
	}
	if got := h.Bin(99); got != 3 {
		t.Fatalf("Bin above range = %d, want 3", got)
	}
}

func TestHistogramTotalPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1e6
		}
		bins := 1 + rng.Intn(32)
		h, err := NewHistogram(xs, bins)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumCounts(h); got != n {
			t.Fatalf("lost samples: total %d, want %d", got, n)
		}
	}
}

func TestHistogramMode(t *testing.T) {
	xs := []float64{1, 5, 5, 5, 9}
	h, err := NewHistogram(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Mode(); got != 1 {
		t.Fatalf("Mode = %d, want 1 (middle bin)", got)
	}
}

// TestHistogramEdges checks that bin i spans [Lo + i·Width, Lo + (i+1)·Width):
// each interior edge opens the bin above it.
func TestHistogramEdges(t *testing.T) {
	h, err := NewHistogram([]float64{0, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Lo != 0 || !almostEqual(h.Width, 2, 1e-12) {
		t.Fatalf("Lo = %g, Width = %g, want 0 and 2", h.Lo, h.Width)
	}
	for i, edge := range []float64{0, 2, 4, 6} {
		if got := h.Bin(edge); got != i {
			t.Fatalf("Bin(%g) = %d, want %d", edge, got, i)
		}
		if got := h.Bin(edge + 1.9); got != i {
			t.Fatalf("Bin(%g) = %d, want %d", edge+1.9, got, i)
		}
	}
}

// sumCounts returns the number of samples h binned.
func sumCounts(h *Histogram) int {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	return total
}

func TestFreedmanDiaconisBins(t *testing.T) {
	if got := FreedmanDiaconisBins(nil, 10); got != 1 {
		t.Fatalf("empty sample bins = %d, want 1", got)
	}
	if got := FreedmanDiaconisBins([]float64{5, 5, 5}, 10); got != 1 {
		t.Fatalf("constant sample bins = %d, want 1", got)
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	got := FreedmanDiaconisBins(xs, 64)
	if got < 2 || got > 64 {
		t.Fatalf("normal sample bins = %d, want in [2, 64]", got)
	}
}
