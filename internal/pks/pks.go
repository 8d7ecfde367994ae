// Package pks implements Principal Kernel Selection (Baddouh et al., MICRO
// 2021), the state-of-the-art baseline Sieve is evaluated against
// (Section II-A of the Sieve paper).
//
// PKS profiles twelve microarchitecture-independent characteristics per
// kernel invocation, standardizes them, reduces dimensionality with PCA, and
// clusters all invocations — across kernels — with k-means. The number of
// clusters k is chosen from 1..20 by minimizing the prediction error against
// a golden cycle count measured on real hardware (the dependency Section
// II-B criticizes). One representative invocation is selected per cluster
// (first-chronological by default; random and centroid are evaluated
// alternates) and the application cycle count is predicted as the sum over
// clusters of (cluster size × representative cycle count).
package pks

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gpusampling/sieve/internal/cluster"
	"github.com/gpusampling/sieve/internal/mat"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/pca"
	"github.com/gpusampling/sieve/internal/stats"
)

// DefaultMaxK is the paper-prescribed cap on the cluster count ("up to a
// maximum k of 20").
const DefaultMaxK = 20

// DefaultVarianceFraction is the PCA explained-variance retention target.
const DefaultVarianceFraction = 0.9

// maxIterations bounds the Lloyd iterations of each candidate k's fit.
const maxIterations = 30

// DefaultClusterSampleCap bounds the number of points k-means iterates over;
// larger profiles are fitted on a deterministic stride-subsample and every
// invocation is then assigned to its nearest centroid. This keeps the
// k-sweep tractable on million-invocation profiles.
const DefaultClusterSampleCap = 20000

// Policy selects the representative invocation within a cluster.
type Policy int

const (
	// SelectFirst picks the chronologically first invocation of the
	// cluster — the PKS default ("PKS-first").
	SelectFirst Policy = iota
	// SelectRandom picks a uniformly random member.
	SelectRandom
	// SelectCentroid picks the member nearest the cluster centroid in the
	// reduced feature space.
	SelectCentroid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SelectFirst:
		return "first-chronological"
	case SelectRandom:
		return "random"
	case SelectCentroid:
		return "centroid"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ClusteringAlgo selects the clustering engine behind the baseline.
type ClusteringAlgo int

const (
	// AlgoKMeans is PKS's clustering (k-means++ and Lloyd iterations, the
	// scalable choice of Baddouh et al.).
	AlgoKMeans ClusteringAlgo = iota
	// AlgoHierarchical is TBPoint-style agglomerative (average-linkage)
	// clustering — the earlier related-work approach the Sieve paper cites.
	// Quadratic in the fitting sample, so the sample is capped harder.
	AlgoHierarchical
)

// String names the algorithm.
func (a ClusteringAlgo) String() string {
	switch a {
	case AlgoKMeans:
		return "kmeans"
	case AlgoHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("ClusteringAlgo(%d)", int(a))
	}
}

// HierarchicalSampleCap bounds the agglomerative fitting sample (the
// dendrogram is O(n²) in space and worse in time).
const HierarchicalSampleCap = 400

// minParallelWork is the estimated sweep size (point-coordinate operations:
// fit points × dims × Lloyd iterations × Σk) below which the k-sweep runs
// inline instead of fanning out to a worker pool. The estimate is a
// deliberate upper bound: it counts every Lloyd iteration as a full scan,
// while the bounded assignment step skips most distance computations and
// most runs converge well before maxIterations.
//
// 32 Mi keeps a sweep inline while it costs less than about 21 ms of CPU:
// BenchmarkSelectPoolCrossover at -cpu 1 -count 5 (2-vCPU Xeon, medians)
// sweeps 28.8 Mi in 19.2 ms and 38.5 Mi in 25.1 ms. On idle cores a
// two-worker pool finishes a sweep in 51–61% of the inline wall time at
// every size that benchmark measures, 1.2 to 38.5 Mi, at the same CPU, so
// there is no crossover to tune for. But a
// plan service runs as many plans as there are cores, and a pooled sweep
// takes every core from the plans running beside it: in sieved, a cheap
// plan requested during pooled pks sweeps took twice as long as during
// inline ones, and the workload-methods benchmark's p50 fell by a third,
// and varied less from run to run, with these sweeps inline. Larger sweeps
// (lmc@0.01 is 60 Mi) still fan out.
const minParallelWork = 32 << 20

// Options configures a PKS run.
type Options struct {
	// MaxK caps the k-means sweep (DefaultMaxK if zero).
	MaxK int
	// Selection is the representative policy.
	Selection Policy
	// Seed drives k-means++ and random selection.
	Seed int64
	// ClusterSampleCap bounds the k-means fitting set
	// (DefaultClusterSampleCap if zero; negative disables subsampling).
	ClusterSampleCap int
	// Clustering selects the engine: AlgoKMeans (PKS) or AlgoHierarchical
	// (TBPoint-style).
	Clustering ClusteringAlgo
	// Parallelism bounds the workers running the k = 1..MaxK sweep
	// concurrently: 0 selects GOMAXPROCS, 1 runs the sweep sequentially.
	// Sweeps estimated under 32 Mi point-coordinate operations run
	// sequentially whatever it says. Every candidate k derives its RNG from
	// Seed alone, so the result is byte-identical at any parallelism.
	Parallelism int
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxK == 0 {
		o.MaxK = DefaultMaxK
	}
	if o.MaxK < 1 {
		return o, fmt.Errorf("pks: MaxK %d < 1", o.MaxK)
	}
	switch o.Selection {
	case SelectFirst, SelectRandom, SelectCentroid:
	default:
		return o, fmt.Errorf("pks: unknown selection policy %d", o.Selection)
	}
	if o.ClusterSampleCap == 0 {
		o.ClusterSampleCap = DefaultClusterSampleCap
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("pks: negative parallelism %d", o.Parallelism)
	}
	switch o.Clustering {
	case AlgoKMeans:
	case AlgoHierarchical:
		if o.ClusterSampleCap < 0 || o.ClusterSampleCap > HierarchicalSampleCap {
			o.ClusterSampleCap = HierarchicalSampleCap
		}
	default:
		return o, fmt.Errorf("pks: unknown clustering algorithm %d", o.Clustering)
	}
	return o, nil
}

// Cluster is one k-means cluster with its representative.
type Cluster struct {
	// Invocations holds member invocation indices, chronological.
	Invocations []int
	// Representative is the selected invocation index.
	Representative int
}

// Size returns the cluster's member count — its prediction weight.
func (c *Cluster) Size() int { return len(c.Invocations) }

// Result is a complete PKS selection.
type Result struct {
	// K is the chosen cluster count.
	K int
	// Clusters holds the clusters; every invocation belongs to exactly one.
	Clusters []Cluster
	// Assignments maps invocation index to cluster index.
	Assignments []int
	// KSelectionError is the per-invocation cycle distortion at the chosen
	// k against the golden reference used during selection:
	// Σᵢ |cycles(rep of i's cluster) − cycles(i)| / Σᵢ cycles(i). PKS picks
	// the k minimizing this representativeness error — the step that makes
	// its selection depend on real-hardware measurements (Section II-B of
	// the Sieve paper).
	KSelectionError float64
}

// SelectContext runs the PKS pipeline. features[i] is the 12-characteristic
// vector of invocation i (chronological); goldenCycles[i] is that
// invocation's measured cycle count on the reference hardware, required by
// PKS's k-selection step. The k = 1..MaxK sweep checks ctx between candidate
// clusterings, so a cancelled or timed-out context stops the sweep —
// already-running candidates finish, queued ones never start, the worker pool
// drains — and the call reports ctx.Err().
func SelectContext(ctx context.Context, features [][]float64, goldenCycles []float64, opts Options) (*Result, error) {
	return selectSweep(ctx, features, goldenCycles, opts, minParallelWork)
}

// selectSweep is SelectContext with the sweep size below which the k-sweep
// runs inline as a parameter, so tests can force the worker pool (minWork 1)
// without a setting shared between them.
func selectSweep(ctx context.Context, features [][]float64, goldenCycles []float64, opts Options, minWork int64) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("pks: no invocations")
	}
	if len(features) != len(goldenCycles) {
		return nil, fmt.Errorf("pks: %d feature rows vs %d golden cycles", len(features), len(goldenCycles))
	}
	var goldenTotal float64
	for i, c := range goldenCycles {
		if c <= 0 {
			return nil, fmt.Errorf("pks: non-positive golden cycles %g at invocation %d", c, i)
		}
		goldenTotal += c
	}

	// Observability: each sweep candidate records a pks.k child span under
	// this one (per-k wall time and distortion); without a collector every
	// StartSpan is a no-op and the sweep is untouched.
	ctx, sp := obs.StartSpan(ctx, "pks.select")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("invocations", len(features))
		sp.SetAttr("clustering", opts.Clustering.String())
		sp.SetAttr("parallelism", opts.Parallelism)
	}

	points, err := reduce(features, DefaultVarianceFraction)
	if err != nil {
		return nil, err
	}

	fitSet, fitIdx := subsample(points, opts.ClusterSampleCap)
	maxK := opts.MaxK
	if maxK > len(fitSet) {
		maxK = len(fitSet)
	}

	clusterings := make(map[int]*cluster.Result, maxK)
	if opts.Clustering == AlgoHierarchical {
		ks := make([]int, 0, maxK)
		for k := 1; k <= maxK; k++ {
			ks = append(ks, k)
		}
		cuts, err := cluster.AgglomerativeCuts(fitSet, ks)
		if err != nil {
			return nil, fmt.Errorf("pks: hierarchical: %w", err)
		}
		clusterings = cuts
	}

	// The k-means candidates all iterate over the same fitting sample, so it
	// is flattened once; each sweep lane then reuses one cluster.Scratch
	// across every k it runs, keeping the sweep allocation-free outside
	// result materialization.
	var fitDS *cluster.Dataset
	if opts.Clustering == AlgoKMeans {
		fitDS, err = cluster.NewDataset(fitSet)
		if err != nil {
			return nil, fmt.Errorf("pks: %w", err)
		}
	}

	// Sweep k = 1..maxK. Each candidate's randomness flows through an RNG
	// derived only from the caller's seed and k itself, so the candidates are
	// independent and can run on a bounded worker pool without changing a
	// single byte of the outcome relative to the sequential sweep.
	//
	// Whether the pool pays is decided by an up-front work estimate
	// (point-coordinate operations across the whole sweep): small sweeps run
	// inline because goroutine + scheduling overhead would dominate them.
	candidates := make([]*Result, maxK+1)
	errsByK := make([]float64, maxK+1)
	failures := make([]error, maxK+1)
	workers := opts.Parallelism
	if workers > maxK {
		workers = maxK
	}
	if sweepWork(fitSet, maxK) < minWork {
		workers = 1
	}
	runK := func(k int, scratch *cluster.Scratch) {
		_, ksp := obs.StartSpan(ctx, "pks.k")
		defer ksp.End()
		ksp.SetAttr("k", k)
		rng := rand.New(stats.NewDrawSource(opts.Seed + int64(k)*7919))
		km := clusterings[k]
		if km == nil {
			var err error
			km, err = cluster.KMeansDataset(fitDS, cluster.Config{
				K: k, Rng: rng, MaxIterations: maxIterations,
			}, scratch)
			if err != nil {
				failures[k] = fmt.Errorf("pks: k=%d: %w", k, err)
				return
			}
		}
		res := assemble(points, fitIdx, km, opts, rng)
		candidates[k] = res
		errsByK[k] = distortion(res, goldenCycles, goldenTotal)
		ksp.SetAttr("distortion", errsByK[k])
	}
	if sp.Active() {
		sp.SetAttr("sweep_workers", workers)
	}
	if workers <= 1 {
		scratch := &cluster.Scratch{}
		for k := 1; k <= maxK; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runK(k, scratch)
		}
	} else {
		// Workers pull candidate k values from a shared counter and check ctx
		// before each pull; every candidate writes to its own slot, so the
		// assembled sweep is byte-identical to the sequential one.
		var wg sync.WaitGroup
		var nextK atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scratch := &cluster.Scratch{}
				for ctx.Err() == nil {
					k := int(nextK.Add(1))
					if k > maxK {
						return
					}
					runK(k, scratch)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for k := 1; k <= maxK; k++ {
		if failures[k] != nil {
			return nil, failures[k]
		}
	}
	// Pick the k minimizing distortion, first-k ties, exactly as the
	// sequential sweep did.
	var best *Result
	for k := 1; k <= maxK; k++ {
		if best == nil || errsByK[k] < best.KSelectionError {
			candidates[k].KSelectionError = errsByK[k]
			best = candidates[k]
		}
	}
	if sp.Active() {
		sp.SetAttr("max_k", maxK)
		sp.SetAttr("chosen_k", best.K)
		sp.SetAttr("distortion", best.KSelectionError)
	}
	return best, nil
}

// sweepWork estimates the k-sweep's cost in point-coordinate operations:
// every candidate k runs up to maxIterations Lloyd passes over the fitting
// sample, each touching n·dim·k coordinates. The estimate is an upper bound
// (Lloyd usually converges early, and the bounded assignment step rescans
// only the points its bounds cannot settle), which is the right bias for a
// parallelize/inline decision: an overestimate occasionally fans out work
// that would have been fine inline, never the reverse.
func sweepWork(fitSet [][]float64, maxK int) int64 {
	if len(fitSet) == 0 {
		return 0
	}
	sumK := int64(maxK) * int64(maxK+1) / 2
	return int64(len(fitSet)) * int64(len(fitSet[0])) * maxIterations * sumK
}

// distortion is the per-invocation representativeness error of a clustering:
// the golden-cycle mass mis-modeled when every member of a cluster is assumed
// to cost what the representative costs.
func distortion(r *Result, goldenCycles []float64, goldenTotal float64) float64 {
	var sum float64
	for ci := range r.Clusters {
		c := &r.Clusters[ci]
		rep := goldenCycles[c.Representative]
		for _, i := range c.Invocations {
			sum += math.Abs(rep - goldenCycles[i])
		}
	}
	return sum / goldenTotal
}

// reduce standardizes and PCA-projects the feature rows.
func reduce(features [][]float64, varFraction float64) ([][]float64, error) {
	if len(features) == 1 {
		// PCA needs ≥ 2 observations; a single invocation needs no
		// clustering geometry at all.
		return [][]float64{{0}}, nil
	}
	m, err := mat.FromRows(features)
	if err != nil {
		return nil, fmt.Errorf("pks: %w", err)
	}
	_, proj, err := pca.FitTransform(m, varFraction)
	if err != nil {
		return nil, fmt.Errorf("pks: %w", err)
	}
	return pca.Rows(proj), nil
}

// subsample returns a deterministic stride subsample of points (and the
// original indices) when cap is exceeded; otherwise the full set.
func subsample(points [][]float64, cap int) ([][]float64, []int) {
	if cap <= 0 || len(points) <= cap {
		idx := make([]int, len(points))
		for i := range idx {
			idx[i] = i
		}
		return points, idx
	}
	stride := (len(points) + cap - 1) / cap
	var sub [][]float64
	var idx []int
	for i := 0; i < len(points); i += stride {
		sub = append(sub, points[i])
		idx = append(idx, i)
	}
	return sub, idx
}

// assemble assigns every invocation to its nearest centroid and selects
// representatives.
func assemble(points [][]float64, fitIdx []int, km *cluster.Result, opts Options, rng *rand.Rand) *Result {
	k := len(km.Centroids)
	res := &Result{K: k, Assignments: make([]int, len(points))}
	res.Clusters = make([]Cluster, k)

	fitted := len(fitIdx) == len(points)
	for i, p := range points {
		var c int
		if fitted {
			c = km.Assignments[i]
		} else {
			c = nearestCentroid(p, km.Centroids)
		}
		res.Assignments[i] = c
		res.Clusters[c].Invocations = append(res.Clusters[c].Invocations, i)
	}
	// Nearest-centroid reassignment can empty a cluster that was only
	// populated in the fitting subsample; drop empties and renumber.
	res.compact()

	for ci := range res.Clusters {
		c := &res.Clusters[ci]
		switch opts.Selection {
		case SelectFirst:
			c.Representative = c.Invocations[0]
		case SelectRandom:
			c.Representative = c.Invocations[rng.Intn(len(c.Invocations))]
		case SelectCentroid:
			c.Representative = nearestMember(points, c.Invocations, centroidOf(points, c.Invocations))
		}
	}
	return res
}

// compact removes empty clusters and renumbers assignments.
func (r *Result) compact() {
	var kept []Cluster
	remap := make([]int, len(r.Clusters))
	for i := range r.Clusters {
		if len(r.Clusters[i].Invocations) == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, r.Clusters[i])
	}
	if len(kept) == len(r.Clusters) {
		return
	}
	r.Clusters = kept
	r.K = len(kept)
	for i, a := range r.Assignments {
		r.Assignments[i] = remap[a]
	}
}

// centroidOf computes the mean point of the given member indices.
func centroidOf(points [][]float64, members []int) []float64 {
	dim := len(points[0])
	c := make([]float64, dim)
	for _, i := range members {
		for d, v := range points[i] {
			c[d] += v
		}
	}
	for d := range c {
		c[d] /= float64(len(members))
	}
	return c
}

// nearestMember returns the member index closest to target.
func nearestMember(points [][]float64, members []int, target []float64) int {
	best, bestD := members[0], math.Inf(1)
	for _, i := range members {
		if d := sqDist(points[i], target); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// nearestCentroid returns the index of the centroid closest to p. Distance
// accumulation aborts as soon as the partial sum reaches the best distance so
// far; pruning can only discard candidates whose full distance is ≥ the
// incumbent's, so the argmin (and the strict-< first-wins tie break) is
// identical to the exhaustive scan.
func nearestCentroid(p []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		var acc float64
		for j, v := range cent {
			diff := p[j] - v
			acc += diff * diff
			if acc >= bestD {
				break
			}
		}
		if acc < bestD {
			best, bestD = c, acc
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}
