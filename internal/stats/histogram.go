package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binning of a sample, used by the equal-width
// Tier-3 splitting ablation and by workload characterization reports.
type Histogram struct {
	// Lo is the lower edge of the first bin.
	Lo float64
	// Width is the width of each bin; always > 0.
	Width float64
	// Counts holds the number of samples per bin.
	Counts []int
}

// NewHistogram bins xs into n equal-width bins spanning [min(xs), max(xs)].
// The top edge is inclusive so the maximum lands in the last bin. It returns
// an error for empty input or n < 1. Degenerate samples (all values equal)
// produce a single-bin histogram of unit width.
func NewHistogram(xs []float64, n int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: histogram of empty sample")
	}
	if n < 1 {
		return nil, fmt.Errorf("stats: histogram with %d bins", n)
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		return &Histogram{Lo: lo, Width: 1, Counts: []int{len(xs)}}, nil
	}
	h := &Histogram{Lo: lo, Width: (hi - lo) / float64(n), Counts: make([]int, n)}
	for _, x := range xs {
		b := int((x - lo) / h.Width)
		if b >= n {
			b = n - 1
		}
		h.Counts[b]++
	}
	return h, nil
}

// Bin returns the bin index x falls into, clamped to the histogram's range.
func (h *Histogram) Bin(x float64) int {
	b := int((x - h.Lo) / h.Width)
	if b < 0 {
		return 0
	}
	if b >= len(h.Counts) {
		return len(h.Counts) - 1
	}
	return b
}

// Mode returns the index of the most populated bin (the lowest such index on
// ties).
func (h *Histogram) Mode() int {
	best, bestCount := 0, -1
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// FreedmanDiaconisBins suggests a bin count for xs using the
// Freedman–Diaconis rule, clamped to [1, maxBins].
func FreedmanDiaconisBins(xs []float64, maxBins int) int {
	if len(xs) < 2 || maxBins < 1 {
		return 1
	}
	q1, err1 := Percentile(xs, 25)
	q3, err3 := Percentile(xs, 75)
	if err1 != nil || err3 != nil {
		return 1
	}
	iqr := q3 - q1
	if iqr <= 0 {
		return 1
	}
	width := 2 * iqr / math.Cbrt(float64(len(xs)))
	span := Max(xs) - Min(xs)
	if span <= 0 || width <= 0 {
		return 1
	}
	n := int(math.Ceil(span / width))
	if n < 1 {
		n = 1
	}
	if n > maxBins {
		n = maxBins
	}
	return n
}
