// Package kde implements one-dimensional Gaussian kernel density estimation,
// the tool Sieve uses to split high-variability (Tier-3) kernels into strata
// (Section III-B of the paper): the estimated density over instruction counts
// is cut at its local minima ("valleys"), grouping invocations into modes so
// that per-stratum dispersion stays below the CoV threshold.
package kde

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/gpusampling/sieve/internal/obs"
)

// Estimator is a fitted 1-D Gaussian kernel density estimator.
type Estimator struct {
	samples   []float64 // sorted copy of the input
	bandwidth float64
}

// invSqrt2Pi is 1/√(2π), the Gaussian kernel normalization constant.
var invSqrt2Pi = 1 / math.Sqrt(2*math.Pi)

// New fits a Gaussian KDE to xs with the given bandwidth. A bandwidth ≤ 0
// selects Silverman's rule of thumb. It returns an error for empty input.
func New(xs []float64, bandwidth float64) (*Estimator, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: no samples")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return NewSorted(sorted, bandwidth)
}

// NewSorted fits a Gaussian KDE to already ascending-sorted samples without
// copying them; the estimator takes ownership of sorted, which must not be
// modified afterwards. It returns an error for empty or unsorted input.
// Fitting a pre-sorted sample skips both the defensive copy and the re-sort
// New performs, so callers that hold sorted data pay one sort total.
func NewSorted(sorted []float64, bandwidth float64) (*Estimator, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("kde: no samples")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			return nil, fmt.Errorf("kde: samples not sorted at index %d", i)
		}
	}
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidthSorted(sorted)
	}
	return &Estimator{samples: sorted, bandwidth: bandwidth}, nil
}

// Bandwidth returns the estimator's bandwidth.
func (e *Estimator) Bandwidth() float64 { return e.bandwidth }

// N returns the number of fitted samples.
func (e *Estimator) N() int { return len(e.samples) }

// Density evaluates the estimated probability density at x.
func (e *Estimator) Density(x float64) float64 {
	h := e.bandwidth
	var acc float64
	// Samples are sorted: only those within 6h of x contribute more than
	// ~1e-8 of the kernel mass, so bound the scan with binary search.
	lo := sort.SearchFloat64s(e.samples, x-6*h)
	hi := sort.SearchFloat64s(e.samples, x+6*h)
	for _, s := range e.samples[lo:hi] {
		u := (x - s) / h
		acc += math.Exp(-0.5 * u * u)
	}
	return acc * invSqrt2Pi / (float64(len(e.samples)) * h)
}

// binnedMinBandwidthSteps gates the linear-binned evaluator. Linear binning
// replaces each sample's kernel contribution by a linear interpolation
// between the two neighboring grid nodes, whose relative error is bounded by
// (step/h)²/8; requiring h ≥ 6·step keeps binned densities within ~0.35% of
// the exact evaluation everywhere, far below anything that moves a valley.
// Narrower bandwidths (where the grid cannot resolve the kernel) fall back
// to the exact sliding-window evaluation, which is cheap there anyway
// because the per-point window holds few samples.
const binnedMinBandwidthSteps = 6

// GridContext evaluates the density on n evenly spaced points spanning the
// sample range extended by 3 bandwidths on each side. It returns parallel
// slices of positions and densities. n must be at least 2.
//
// The evaluator is linear-binned: the n samples are accumulated onto the
// grid once (O(n)), and the density is then a convolution of the bin weights
// with a Gaussian kernel table truncated at 6σ, summed over the occupied
// bins only (O(g·w_occupied) for w_occupied = occupied bins within a point's
// kernel half-width) — independent of the sample count per grid point.
// Bandwidths too narrow for the grid to resolve
// (h < binnedMinBandwidthSteps·step) are evaluated exactly instead; see
// GridExact for the reference evaluation. Cancellation is checked between
// evaluation chunks on the exact fallback path; the binned path has no
// chunks (its O(n + g·w_occupied) pass is one unit), so it is checked only
// on entry.
func (e *Estimator) GridContext(ctx context.Context, n int) (xs, ds []float64, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("kde: grid needs at least 2 points, got %d", n)
	}
	xs = make([]float64, n)
	ds = make([]float64, n)
	if err := e.GridInto(ctx, xs, ds); err != nil {
		return nil, nil, err
	}
	return xs, ds, nil
}

// GridInto is GridContext writing into caller-provided slices: xs and ds
// must have equal length ≥ 2 and are fully overwritten. All internal
// scratch (bin weights, kernel table, occupied-bin list) comes from pooled
// buffers, so the steady-state allocation count is zero — the property the
// Tier-3 splitting hot path relies on.
func (e *Estimator) GridInto(ctx context.Context, xs, ds []float64) error {
	n := len(xs)
	if n < 2 {
		return fmt.Errorf("kde: grid needs at least 2 points, got %d", n)
	}
	if len(ds) != n {
		return fmt.Errorf("kde: grid buffers disagree: %d positions vs %d densities", n, len(ds))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, sp := obs.StartSpan(ctx, "kde.grid"); sp.Active() {
		defer sp.End()
		sp.SetAttr("points", n)
		sp.SetAttr("samples", len(e.samples))
		sp.SetAttr("bandwidth", e.bandwidth)
		sp.Add("evaluations", int64(n))
	}
	lo, step := e.gridSpan(n)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	if step > 0 && e.bandwidth >= binnedMinBandwidthSteps*step {
		e.gridBinned(xs, ds, lo, step)
		return nil
	}
	return e.gridExactChunked(ctx, xs, ds)
}

// GridExact is the reference evaluator: the density at every grid point is
// computed directly from the samples with one sliding [x−6h, x+6h) window,
// bitwise equal to calling Density per point. O(g + n) bookkeeping plus the
// window scans — the pre-binning algorithm, kept as the ground truth the
// binned fast path is validated against and as the fallback for bandwidths
// the grid cannot resolve.
func (e *Estimator) GridExact(n int) (xs, ds []float64, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("kde: grid needs at least 2 points, got %d", n)
	}
	lo, step := e.gridSpan(n)
	xs = make([]float64, n)
	ds = make([]float64, n)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	if err := e.gridExactChunked(context.Background(), xs, ds); err != nil {
		return nil, nil, err
	}
	return xs, ds, nil
}

// gridSpan returns the first position and the spacing of the n-point grid
// spanning the sample range extended by 3 bandwidths on each side.
func (e *Estimator) gridSpan(n int) (lo, step float64) {
	lo = e.samples[0] - 3*e.bandwidth
	hi := e.samples[len(e.samples)-1] + 3*e.bandwidth
	return lo, (hi - lo) / float64(n-1)
}

// gridExactChunkPoints bounds how many grid points the exact path evaluates
// between context checks.
const gridExactChunkPoints = 256

// gridExactChunked runs the exact evaluation over xs in fixed-size chunks,
// observing ctx between chunks.
func (e *Estimator) gridExactChunked(ctx context.Context, xs, ds []float64) error {
	for start := 0; start < len(xs); start += gridExactChunkPoints {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+gridExactChunkPoints, len(xs))
		e.gridExactEval(xs[start:end], ds[start:end])
	}
	return nil
}

// gridExactEval fills ds with densities at the ascending positions xs using a
// single sliding window over the sorted samples. Only samples within 6
// bandwidths contribute more than ~1e-8 of the kernel mass, matching the
// truncation Density applies.
func (e *Estimator) gridExactEval(xs, ds []float64) {
	if len(xs) == 0 {
		return
	}
	h := e.bandwidth
	lo := sort.SearchFloat64s(e.samples, xs[0]-6*h)
	hi := lo
	for i, x := range xs {
		lower, upper := x-6*h, x+6*h
		for lo < len(e.samples) && e.samples[lo] < lower {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(e.samples) && e.samples[hi] < upper {
			hi++
		}
		var acc float64
		for _, s := range e.samples[lo:hi] {
			u := (x - s) / h
			acc += math.Exp(-0.5 * u * u)
		}
		// Same expression shape as Density so the results stay bitwise
		// equal to per-point evaluation.
		ds[i] = acc * invSqrt2Pi / (float64(len(e.samples)) * h)
	}
}

// gridBinned fills ds with linear-binned densities: samples are spread onto
// the two neighboring grid nodes in one O(n) pass, a truncated kernel table
// is evaluated once per grid offset (w+1 Exp calls total, not per point),
// and each density is a dot product of bin weights with that table, taken
// over the occupied bins only (convolveOccupied).
func (e *Estimator) gridBinned(xs, ds []float64, lo, step float64) {
	g := len(xs)
	h := e.bandwidth
	binsBuf := getFloats(g)
	bins := *binsBuf
	invStep := 1 / step
	for _, s := range e.samples {
		t := (s - lo) * invStep
		j := int(t)
		// Samples live in [lo+3h, hi−3h], so j stays interior; the clamps
		// only guard against last-ulp rounding at the extremes.
		if j < 0 {
			j = 0
		}
		if j >= g-1 {
			bins[g-1]++
			continue
		}
		frac := t - float64(j)
		bins[j] += 1 - frac
		bins[j+1] += frac
	}

	// Kernel half-width in grid steps, truncated at 6σ like Density.
	halfW := int(6*h*invStep) + 1
	if halfW > g-1 {
		halfW = g - 1
	}
	ktabBuf := getFloats(halfW + 1)
	ktab := *ktabBuf
	r := step / h
	for d := 0; d <= halfW; d++ {
		u := float64(d) * r
		ktab[d] = math.Exp(-0.5 * u * u)
	}

	convolveOccupied(ds, bins, ktab, invSqrt2Pi/(float64(len(e.samples))*h))
	putFloats(ktabBuf)
	putFloats(binsBuf)
}

// convolveOccupied sets ds[i] = norm·Σ bins[j]·ktab[|i−j|] over the bins j
// within len(ktab)−1 steps of i, summed descending from i and then
// ascending from i+1. Only occupied (non-zero) bins are visited: an empty
// bin contributes 0·ktab[d] = ±0, and adding a zero leaves a sum unchanged
// bit for bit, so skipping it yields exactly the dense convolution while
// the cost per point falls from the window width to the occupied bins in
// the window. Real Tier-3 kernels bin tens of samples onto 512 nodes, so
// most of each window is empty.
func convolveOccupied(ds, bins, ktab []float64, norm float64) {
	g, halfW := len(bins), len(ktab)-1
	idxBuf := getInts(g)
	idx := *idxBuf
	wBuf := getFloats(g)
	w := *wBuf
	occ := 0
	for j, b := range bins {
		if b != 0 {
			idx[occ], w[occ] = j, b
			occ++
		}
	}
	idx, w = idx[:occ], w[:occ]
	// [first, split) are the occupied bins in [i−halfW, i], [split, end)
	// those in (i, i+halfW]; all three advance monotonically with i.
	first, split, end := 0, 0, 0
	for i := range ds {
		for first < occ && idx[first] < i-halfW {
			first++
		}
		for split < occ && idx[split] <= i {
			split++
		}
		for end < occ && idx[end] <= i+halfW {
			end++
		}
		var acc float64
		for k := split - 1; k >= first; k-- {
			acc += w[k] * ktab[i-idx[k]]
		}
		for k := split; k < end; k++ {
			acc += w[k] * ktab[idx[k]-i]
		}
		ds[i] = acc * norm
	}
	putFloats(wBuf)
	putInts(idxBuf)
}

// floatsPool recycles the scratch buffers (bin weights, kernel tables, valley
// grids) of the KDE hot path so repeated grid evaluations allocate nothing in
// steady state.
var floatsPool = sync.Pool{New: func() any { s := make([]float64, 0, 1024); return &s }}

// getFloats returns a pooled zeroed []float64 of length n (via pointer, to
// keep the pool allocation-free).
func getFloats(n int) *[]float64 {
	buf := floatsPool.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return buf
}

// putFloats returns a buffer obtained from getFloats to the pool.
func putFloats(buf *[]float64) { floatsPool.Put(buf) }

// intsPool recycles the occupied-bin index lists of convolveOccupied.
var intsPool = sync.Pool{New: func() any { s := make([]int, 0, 1024); return &s }}

// getInts returns a pooled []int of length n; its contents are unspecified.
func getInts(n int) *[]int {
	buf := intsPool.Get().(*[]int)
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// putInts returns a buffer obtained from getInts to the pool.
func putInts(buf *[]int) { intsPool.Put(buf) }

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9·min(σ, IQR/1.34)·n^(-1/5), with fallbacks for degenerate samples so the
// result is always positive.
func SilvermanBandwidth(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SilvermanBandwidthSorted(sorted)
}

// SilvermanBandwidthSorted is SilvermanBandwidth on an already
// ascending-sorted sample; it neither copies nor re-sorts the input.
func SilvermanBandwidthSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 1
	}

	var mean float64
	for _, x := range sorted {
		mean += x
	}
	mean /= float64(n)
	var varAcc float64
	for _, x := range sorted {
		d := x - mean
		varAcc += d * d
	}
	sigma := math.Sqrt(varAcc / float64(n))

	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread == 0 {
		// Constant (or near-constant) sample: any positive bandwidth yields a
		// single mode, which is the behaviour the stratifier wants.
		if mean != 0 {
			spread = math.Abs(mean) * 1e-3
		} else {
			spread = 1
		}
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted
// sample using linear interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
