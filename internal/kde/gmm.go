package kde

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/gpusampling/sieve/internal/obs"
)

// Mixture is a one-dimensional Gaussian mixture model.
type Mixture struct {
	// Weights, Means and StdDevs describe the components; Weights sum to 1
	// and StdDevs are strictly positive.
	Weights, Means, StdDevs []float64
}

// K returns the number of components.
func (m *Mixture) K() int { return len(m.Weights) }

// gmmMaxIter bounds EM iterations; 1-D mixtures on instruction counts
// converge in a few dozen.
const gmmMaxIter = 200

// minMixtureStdDev floors component standard deviations relative to the
// sample spread to keep the likelihood bounded (EM's classic degenerate
// collapse onto a single point).
const minMixtureStdDevFrac = 1e-4

// FitMixture fits a k-component 1-D Gaussian mixture to xs with
// expectation-maximization. Initialization is deterministic (means at
// sample quantiles, shared variance), so identical inputs give identical
// mixtures.
func FitMixture(xs []float64, k int) (*Mixture, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: no samples for mixture")
	}
	if k < 1 || k > len(xs) {
		return nil, fmt.Errorf("kde: mixture components %d outside [1, %d]", k, len(xs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	var mean, varAcc float64
	for _, x := range sorted {
		mean += x
	}
	mean /= float64(len(sorted))
	for _, x := range sorted {
		d := x - mean
		varAcc += d * d
	}
	sampleSD := math.Sqrt(varAcc / float64(len(sorted)))
	floorSD := sampleSD * minMixtureStdDevFrac
	if floorSD == 0 {
		floorSD = math.Max(math.Abs(mean)*1e-6, 1e-12)
	}

	m := &Mixture{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		StdDevs: make([]float64, k),
	}
	for c := 0; c < k; c++ {
		m.Weights[c] = 1 / float64(k)
		m.Means[c] = quantileSorted(sorted, (float64(c)+0.5)/float64(k))
		m.StdDevs[c] = math.Max(sampleSD/float64(k), floorSD)
	}

	n := len(sorted)
	resp := make([]float64, n*k)
	var prevLL float64
	for iter := 0; iter < gmmMaxIter; iter++ {
		// E-step: responsibilities.
		var ll float64
		for i, x := range sorted {
			var total float64
			for c := 0; c < k; c++ {
				p := m.Weights[c] * gaussianPDF(x, m.Means[c], m.StdDevs[c])
				resp[i*k+c] = p
				total += p
			}
			if total <= 0 {
				// Point infinitely unlikely under every component (extreme
				// tail): assign to the nearest mean.
				best := 0
				for c := 1; c < k; c++ {
					if math.Abs(x-m.Means[c]) < math.Abs(x-m.Means[best]) {
						best = c
					}
				}
				for c := 0; c < k; c++ {
					resp[i*k+c] = 0
				}
				resp[i*k+best] = 1
				total = 1
			}
			for c := 0; c < k; c++ {
				resp[i*k+c] /= total
			}
			ll += math.Log(total)
		}
		// M-step.
		for c := 0; c < k; c++ {
			var w, mu float64
			for i, x := range sorted {
				w += resp[i*k+c]
				mu += resp[i*k+c] * x
			}
			if w <= 0 {
				// Dead component: reseat on the point least explained.
				worst, worstP := 0, math.Inf(1)
				for i := range sorted {
					var p float64
					for cc := 0; cc < k; cc++ {
						p += resp[i*k+cc] * m.Weights[cc]
					}
					if p < worstP {
						worst, worstP = i, p
					}
				}
				m.Means[c] = sorted[worst]
				m.StdDevs[c] = math.Max(sampleSD/float64(k), floorSD)
				m.Weights[c] = 1 / float64(n)
				continue
			}
			mu /= w
			var va float64
			for i, x := range sorted {
				d := x - mu
				va += resp[i*k+c] * d * d
			}
			m.Weights[c] = w / float64(n)
			m.Means[c] = mu
			m.StdDevs[c] = math.Max(math.Sqrt(va/w), floorSD)
		}
		if iter > 0 && math.Abs(ll-prevLL) < 1e-9*(1+math.Abs(prevLL)) {
			break
		}
		prevLL = ll
	}
	// Keep components sorted by mean for deterministic downstream use.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.Means[idx[a]] < m.Means[idx[b]] })
	out := &Mixture{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		StdDevs: make([]float64, k),
	}
	for i, j := range idx {
		out.Weights[i] = m.Weights[j]
		out.Means[i] = m.Means[j]
		out.StdDevs[i] = m.StdDevs[j]
	}
	return out, nil
}

// Assign returns the index of the most responsible component for x.
func (m *Mixture) Assign(x float64) int {
	best, bestP := 0, -1.0
	for c := range m.Weights {
		if p := m.Weights[c] * gaussianPDF(x, m.Means[c], m.StdDevs[c]); p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

// SplitUnderCoVGMMContext stratifies xs like SplitUnderCoVContext, but with
// an EM-fitted Gaussian mixture instead of KDE valleys: the component count
// grows until every contiguous run of same-component samples has CoV below
// threshold (stubborn runs fall back to median bisection). Groups are
// ascending and partition the input. A collector attached to ctx records a
// kde.split_gmm span carrying the sample count and resulting group count. The
// EM fit itself is uninterruptible; ctx is observed only at span boundaries.
func SplitUnderCoVGMMContext(ctx context.Context, xs []float64, threshold float64) ([][]float64, error) {
	_, sp := obs.StartSpan(ctx, "kde.split_gmm")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("samples", len(xs))
		sp.SetAttr("threshold", threshold)
	}
	out, err := splitUnderCoVGMM(xs, threshold)
	if err == nil && sp.Active() {
		sp.SetAttr("groups", len(out))
	}
	return out, err
}

func splitUnderCoVGMM(xs []float64, threshold float64) ([][]float64, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("kde: non-positive CoV threshold %g", threshold)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: no samples to split")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if cov(sorted) < threshold {
		return [][]float64{sorted}, nil
	}

	maxK := 16
	if maxK > len(sorted) {
		maxK = len(sorted)
	}
	var groups [][]float64
	for k := 2; k <= maxK; k++ {
		m, err := FitMixture(sorted, k)
		if err != nil {
			return nil, err
		}
		groups = contiguousRuns(sorted, m)
		if allUnder(groups, threshold) {
			return groups, nil
		}
	}
	// Bisect whatever the largest mixture could not make homogeneous.
	var out [][]float64
	for _, g := range groups {
		out = append(out, bisectUnderCoV(g, threshold, 0)...)
	}
	return out, nil
}

// contiguousRuns partitions the sorted sample into runs of equal hard
// assignment.
func contiguousRuns(sorted []float64, m *Mixture) [][]float64 {
	var groups [][]float64
	start := 0
	current := m.Assign(sorted[0])
	for i := 1; i < len(sorted); i++ {
		if a := m.Assign(sorted[i]); a != current {
			groups = append(groups, sorted[start:i:i])
			start, current = i, a
		}
	}
	return append(groups, sorted[start:])
}

func allUnder(groups [][]float64, threshold float64) bool {
	for _, g := range groups {
		if len(g) > 1 && cov(g) >= threshold {
			return false
		}
	}
	return true
}

// gaussianPDF is the normal density.
func gaussianPDF(x, mu, sd float64) float64 {
	u := (x - mu) / sd
	return math.Exp(-0.5*u*u) * invSqrt2Pi / sd
}
