package kde

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/gpusampling/sieve/internal/obs"
)

// DefaultGridPoints is the density-grid resolution used by valley splitting.
// 512 points resolves the handful of modes real instruction-count
// distributions exhibit while keeping splitting cost negligible next to
// profiling.
const DefaultGridPoints = 512

// ValleysContext returns the positions of the local minima of the estimated
// density evaluated on an n-point grid — the natural cut points between
// modes. Plateau minima report their midpoint once. The density grid
// underneath observes ctx between evaluation chunks and records a kde.grid
// span when a collector is attached. The grid itself lives in pooled scratch,
// so only the (typically tiny) valley slice is allocated.
func (e *Estimator) ValleysContext(ctx context.Context, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("kde: grid needs at least 2 points, got %d", n)
	}
	xsBuf, dsBuf := getFloats(n), getFloats(n)
	defer putFloats(xsBuf)
	defer putFloats(dsBuf)
	xs, ds := *xsBuf, *dsBuf
	if err := e.GridInto(ctx, xs, ds); err != nil {
		return nil, err
	}
	return ValleysFromGrid(xs, ds), nil
}

// ValleysFromGrid scans an evaluated density grid for local minima and
// returns their positions; plateau minima report their midpoint once. It is
// the pure reduction ValleysContext applies to the binned grid — exposed so
// verification code can run the identical scan over a reference grid (e.g.
// GridExact) and compare valley sets.
func ValleysFromGrid(xs, ds []float64) []float64 {
	var valleys []float64
	i := 1
	for i < len(ds)-1 {
		if ds[i] < ds[i-1] {
			// Walk any plateau of equal densities.
			j := i
			for j+1 < len(ds) && ds[j+1] == ds[j] {
				j++
			}
			if j < len(ds)-1 && ds[j+1] > ds[j] {
				valleys = append(valleys, (xs[i]+xs[j])/2)
			}
			i = j + 1
			continue
		}
		i++
	}
	return valleys
}

// SplitAtValleys partitions xs into groups separated by the density valleys:
// group k holds every sample between valley k-1 (exclusive) and valley k
// (inclusive). Groups are returned in ascending order of value and are never
// empty. The input is not modified.
func SplitAtValleys(xs []float64, valleys []float64) [][]float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return splitSortedAtValleys(sorted, valleys)
}

// splitSortedAtValleys is SplitAtValleys on an already-sorted sample; the
// returned groups alias sorted.
func splitSortedAtValleys(sorted []float64, valleys []float64) [][]float64 {
	cuts := append([]float64(nil), valleys...)
	sort.Float64s(cuts)

	groups := make([][]float64, 0, len(cuts)+1)
	start := 0
	for _, c := range cuts {
		end := sort.Search(len(sorted), func(i int) bool { return sorted[i] > c })
		if end > start {
			groups = append(groups, sorted[start:end:end])
			start = end
		}
	}
	if start < len(sorted) {
		groups = append(groups, sorted[start:])
	}
	return groups
}

// MaxRecursionDepth bounds SplitUnderCoVContext's recursive bisection of
// groups the valley pass could not make homogeneous. 2^32 potential leaves is
// far beyond any real instruction-count distribution, so hitting the bound
// means the data is pathological (e.g. heavy mass at zero) and the group is
// accepted as-is rather than split forever.
const MaxRecursionDepth = 32

// SplitUnderCoVContext stratifies xs so every returned group has a
// coefficient of variation below threshold, using as few strata as possible
// in practice: it first cuts at KDE density valleys (minimizing strata at
// mode boundaries) and then recursively median-bisects any group still above
// the threshold. Groups are sorted ascending; together they contain every
// input sample. threshold must be positive. A collector attached to ctx
// records a kde.split span (sample count, bandwidth, valley and group counts)
// with the density-grid evaluation nested under it, and a cancelled context
// stops the grid between evaluation chunks.
func SplitUnderCoVContext(ctx context.Context, xs []float64, threshold float64) ([][]float64, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("kde: non-positive CoV threshold %g", threshold)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: no samples to split")
	}
	ctx, sp := obs.StartSpan(ctx, "kde.split")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("samples", len(xs))
		sp.SetAttr("threshold", threshold)
	}
	// cov must see the caller's order: summation order affects the last ulp
	// and the pass-through decision must not depend on the sort below.
	passThrough := cov(xs) < threshold
	// One sort serves the pass-through, the estimator fit and the valley
	// partition below.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if passThrough {
		sp.SetAttr("groups", 1)
		return [][]float64{sorted}, nil
	}

	est, err := NewSorted(sorted, 0)
	if err != nil {
		return nil, err
	}
	valleys, err := est.ValleysContext(ctx, DefaultGridPoints)
	if err != nil {
		return nil, err
	}
	var out [][]float64
	for _, g := range splitSortedAtValleys(sorted, valleys) {
		out = append(out, bisectUnderCoV(g, threshold, 0)...)
	}
	if sp.Active() {
		sp.SetAttr("bandwidth", est.Bandwidth())
		sp.SetAttr("valleys", len(valleys))
		sp.SetAttr("groups", len(out))
	}
	return out, nil
}

// bisectUnderCoV recursively splits a sorted group at its median until the
// CoV constraint holds or the group becomes indivisible.
func bisectUnderCoV(sorted []float64, threshold float64, depth int) [][]float64 {
	if len(sorted) <= 1 || cov(sorted) < threshold || depth >= MaxRecursionDepth {
		return [][]float64{sorted}
	}
	mid := len(sorted) / 2
	// Keep equal values together: slide the cut right past duplicates of the
	// median so identical instruction counts never land in different strata.
	for mid < len(sorted) && sorted[mid] == sorted[mid-1] {
		mid++
	}
	if mid == len(sorted) {
		// All remaining values from the median up are equal; cut before them.
		mid = len(sorted) / 2
		for mid > 0 && sorted[mid] == sorted[mid-1] {
			mid--
		}
		if mid == 0 {
			return [][]float64{sorted}
		}
	}
	left := bisectUnderCoV(sorted[:mid], threshold, depth+1)
	right := bisectUnderCoV(sorted[mid:], threshold, depth+1)
	return append(left, right...)
}

// cov is a local coefficient-of-variation helper (population σ / μ), 0 when
// the mean is 0.
func cov(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var varAcc float64
	for _, x := range xs {
		d := x - mean
		varAcc += d * d
	}
	return math.Sqrt(varAcc/float64(len(xs))) / math.Abs(mean)
}
