package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Log-bucketing parameters. Buckets are geometric: bucket i covers
// [histMin·growth^i, histMin·growth^(i+1)), spanning ~1 ns to ~17 minutes of
// seconds-denominated latencies (and, being unitless, any positive metric in
// that dynamic range). With 8% growth the relative quantile error is bounded
// by the bucket width: ≤ 4% to the geometric bucket midpoint, which the
// quantile test pins down against exact percentiles.
const (
	histMin     = 1e-9
	histGrowth  = 1.08
	histBuckets = 720 // ceil(ln(maxValue/histMin)/ln(histGrowth)); covers ~1e12× range
)

// invLogGrowth is 1/ln(growth), precomputed for bucket indexing.
var invLogGrowth = 1 / math.Log(histGrowth)

// Histogram is a concurrency-safe log-bucketed histogram for latencies and
// other non-negative values. Observations are lock-free atomic increments;
// quantiles are estimated from the bucket counts with relative error bounded
// by the bucket growth factor and clamped to the exact observed min/max.
// The zero value cannot record (create via NewHistogram), but every read
// accessor — Quantile, Count, Sum, Min, Max — is safe on a nil receiver and on
// the zero value, returning the same documented empty-histogram results a
// fresh NewHistogram would.
type Histogram struct {
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; +Inf until first observation
	maxBits atomic.Uint64 // float64 bits; -Inf until first observation
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{counts: make([]atomic.Uint64, histBuckets)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket, clamping the extremes.
func bucketIndex(v float64) int {
	if !(v > histMin) { // also catches NaN and negatives
		return 0
	}
	i := int(math.Log(v/histMin) * invLogGrowth)
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns bucket i's [lo, hi) value range.
func bucketBounds(i int) (lo, hi float64) {
	lo = histMin * math.Pow(histGrowth, float64(i))
	return lo, lo * histGrowth
}

// Observe records one value. Negative and NaN values count into the lowest
// bucket (they are clock noise in practice, not valid latencies). Observing
// into a nil histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.counts == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a wall-clock duration, converted to seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observed value (0 before any observation).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	v := math.Float64frombits(h.minBits.Load())
	if math.IsInf(v, 1) {
		return 0
	}
	return v
}

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	v := math.Float64frombits(h.maxBits.Load())
	if math.IsInf(v, -1) {
		return 0
	}
	return v
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values: the
// geometric midpoint of the bucket holding the target rank, clamped to the
// exact observed [min, max].
//
// An empty histogram — no observations yet, the zero value, or a nil
// receiver — returns exactly 0 for every q. That zero is a documented
// contract (dashboards render "no data yet" as 0ms), not a bucket-math
// artifact: the rank walk below never runs without observations, so the
// empty answer can never drift with the bucket layout.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	// Snapshot the counts; concurrent observers may race individual buckets
	// against the total, so walk with the snapshot's own total.
	snap := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range snap {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			v := math.Sqrt(lo * hi)
			if min := h.Min(); v < min {
				v = min
			}
			if max := h.Max(); v > max {
				v = max
			}
			return v
		}
	}
	return h.Max()
}

// Cumulative maps the histogram onto a fixed explicit-bucket ladder: cum[i]
// is the number of observations ≤ bounds[i] (the Prometheus `le` view), and
// total is the overall observation count (the +Inf bucket). bounds must be
// sorted ascending. The mapping is conservative: a log bucket is attributed
// to the first bound that is ≥ its upper edge, so every reported cum[i]
// counts only observations genuinely ≤ bounds[i]; observations past the last
// bound appear in total alone. Safe on a nil receiver (all-zero ladder).
func (h *Histogram) Cumulative(bounds []float64) (cum []uint64, total uint64) {
	cum = make([]uint64, len(bounds))
	if h == nil || h.counts == nil {
		return cum, 0
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		total += c
		_, hi := bucketBounds(i)
		j := sort.SearchFloat64s(bounds, hi)
		if j < len(bounds) {
			cum[j] += c
		}
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return cum, total
}
