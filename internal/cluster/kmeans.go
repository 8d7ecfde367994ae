// Package cluster implements the k-means clustering substrate used by the
// PKS baseline (Baddouh et al., MICRO 2021): k-means++ seeding, Lloyd
// iterations with empty-cluster repair, and cluster-quality metrics.
//
// Determinism: all randomness flows through the caller-supplied *rand.Rand,
// so a fixed seed reproduces the same clustering — the property the
// experiment harness relies on.
//
// The Lloyd kernels run over a flat struct-of-arrays Dataset (one
// contiguous []float64 with a row stride) rather than [][]float64, with
// reusable Scratch buffers, so the iteration loop is memory-bandwidth-bound
// and allocation-free — the k-sweep in internal/pks flattens its fitting
// sample once and reuses one Scratch across all candidate k values.
//
// The assignment step is pruned with Hamerly's bounds (Hamerly, "Making
// k-means even faster", SDM 2010). Each point keeps an upper bound on the
// distance to its own centroid and one lower bound on the distance to every
// other centroid; after each update the first grows by its centroid's drift
// and the second shrinks by the largest drift of any other centroid. Each
// centroid also knows half the distance to its nearest other centroid. A
// point whose upper bound is below the larger of that half-distance and its
// lower bound cannot change cluster, so it is not scanned. Only points that
// fail the test are rescanned.
//
// Pruning never changes a result: every Result is bit-identical to plain
// Lloyd's. A point is skipped only when its test passes by a relative
// margin (pruneMargin) far above the bounds' rounding error, so a tie or
// near-tie always gets the exact first-index-wins scan; the lower bounds
// are rounded down, and drifts up, so cancellation cannot make them unsound.
// Centroid sums are rebuilt from scratch every iteration in point order, a
// reseated point's bounds are invalidated, and the final pass computes each
// skipped point's distance with the same expression the scan uses, so
// inertia is summed from the same numbers in the same order.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/gpusampling/sieve/internal/stats"
)

// Result describes a k-means clustering.
type Result struct {
	// Centroids holds the k cluster centers.
	Centroids [][]float64
	// Assignments maps each input point index to its cluster index.
	Assignments []int
	// Sizes holds the number of points per cluster.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters; required, ≥ 1.
	K int
	// MaxIterations bounds Lloyd iterations (default 100).
	MaxIterations int
	// Tolerance stops iteration when no centroid moves more than this
	// squared distance (default 1e-9).
	Tolerance float64
	// Rng supplies randomness for k-means++ seeding; required.
	Rng *rand.Rand
	// Restarts runs the whole algorithm this many times from independent
	// seedings and keeps the lowest-inertia clustering (default 1; ties break
	// toward the earlier restart). Restart seeds are drawn from Rng up front,
	// so the result does not depend on Parallelism or scheduling.
	Restarts int
	// Parallelism bounds concurrent restarts: 0 selects GOMAXPROCS, 1 runs
	// them sequentially. A single run (Restarts ≤ 1) is always sequential.
	Parallelism int
}

// Dataset is a columnar (flat, row-major) point set: point i occupies
// data[i*dim : (i+1)*dim]. Flattening once and iterating with a stride keeps
// the Lloyd kernels on contiguous memory instead of chasing a pointer per
// point.
type Dataset struct {
	data []float64
	n    int
	dim  int
}

// NewDataset flattens points into a Dataset. It returns an error for empty,
// zero-dimensional or ragged input.
func NewDataset(points [][]float64) (*Dataset, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("cluster: zero-dimensional points")
	}
	data := make([]float64, 0, len(points)*dim)
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), dim)
		}
		data = append(data, p...)
	}
	return &Dataset{data: data, n: len(points), dim: dim}, nil
}

// Len returns the number of points.
func (d *Dataset) Len() int { return d.n }

// row returns point i as a slice view into the flat storage.
func (d *Dataset) row(i int) []float64 { return d.data[i*d.dim : (i+1)*d.dim] }

// Scratch holds the per-run Lloyd state (centroids, assignment, sizes,
// seeding distances) so repeated runs — restarts, or a k-sweep over the same
// dataset — allocate nothing after the first use. A zero Scratch is ready;
// it grows to the largest (n, dim, k) it has seen.
type Scratch struct {
	centroids  []float64 // k*dim, current centroids
	next       []float64 // k*dim, update-step accumulator
	assign     []int     // n
	sizes      []int     // k
	dMin       []float64 // n, k-means++ nearest-chosen-centroid distances
	upper      []float64 // n, bound above each point's distance to its own centroid
	lower      []float64 // n, bound below its distance to every other centroid
	half       []float64 // k, half the distance to the nearest other centroid
	drift      []float64 // k, distance each centroid moved in the last update
	rivalDrift []float64 // k, largest drift among the other centroids
	cand       []int     // n, points failing an update pass's aged bound test
	inertia    float64
	iterations int
}

// resize readies the scratch for a run over n points of dim dimensions with
// k clusters, reusing prior capacity where possible.
func (s *Scratch) resize(n, dim, k int) {
	s.centroids = growFloats(s.centroids, k*dim)
	s.next = growFloats(s.next, k*dim)
	s.dMin = growFloats(s.dMin, n)
	s.upper = growFloats(s.upper, n)
	s.lower = growFloats(s.lower, n)
	s.half = growFloats(s.half, k)
	s.drift = growFloats(s.drift, k)
	s.rivalDrift = growFloats(s.rivalDrift, k)
	s.assign = growInts(s.assign, n)
	s.cand = growInts(s.cand, n)
	s.sizes = growInts(s.sizes, k)
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// KMeans clusters points (each a feature vector of equal length) into cfg.K
// clusters. It returns an error for invalid configuration, empty or ragged
// input, or K exceeding the number of points.
func KMeans(points [][]float64, cfg Config) (*Result, error) {
	ds, err := NewDataset(points)
	if err != nil {
		return nil, err
	}
	return KMeansDataset(ds, cfg, nil)
}

// KMeansDataset is KMeans over an already-flattened Dataset. scratch, when
// non-nil, supplies reusable iteration buffers (and is left holding the last
// run's state); callers sweeping many configurations over one dataset pass
// the same Scratch to keep the steady-state allocation count at the Result
// materialization alone. A nil scratch uses a private one.
func KMeansDataset(ds *Dataset, cfg Config, scratch *Scratch) (*Result, error) {
	if err := validate(ds, &cfg); err != nil {
		return nil, err
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	if cfg.Restarts == 1 {
		lloyd(ds, &cfg, cfg.Rng, scratch)
		return materialize(ds, &cfg, scratch), nil
	}
	// Draw every restart seed from the shared Rng before fanning out: the
	// per-restart RNGs are then fully determined by the caller's seed and the
	// parallel result is byte-identical to the sequential one.
	seeds := make([]int64, cfg.Restarts)
	for i := range seeds {
		seeds[i] = cfg.Rng.Int63()
	}
	workers := cfg.Parallelism
	if workers > cfg.Restarts {
		workers = cfg.Restarts
	}
	if workers <= 1 {
		// Sequential restarts share one scratch; only an improving restart
		// pays the materialization. Ties break toward the earlier restart,
		// exactly like the parallel reduction below.
		var best *Result
		for _, seed := range seeds {
			lloyd(ds, &cfg, rand.New(stats.NewDrawSource(seed)), scratch)
			if best == nil || scratch.inertia < best.Inertia {
				best = materialize(ds, &cfg, scratch)
			}
		}
		return best, nil
	}
	// Parallel restarts: workers own disjoint restart slots and private
	// scratch; the reduction below walks slots in restart order.
	results := make([]*Result, cfg.Restarts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var s Scratch
			lloyd(ds, &cfg, rand.New(stats.NewDrawSource(seed)), &s)
			results[i] = materialize(ds, &cfg, &s)
		}(i, seed)
	}
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		if r.Inertia < best.Inertia {
			best = r
		}
	}
	return best, nil
}

// materialize copies the scratch's converged state into a standalone Result.
func materialize(ds *Dataset, cfg *Config, s *Scratch) *Result {
	dim := ds.dim
	res := &Result{
		Centroids:   make([][]float64, cfg.K),
		Assignments: append([]int(nil), s.assign...),
		Sizes:       append([]int(nil), s.sizes...),
		Inertia:     s.inertia,
		Iterations:  s.iterations,
	}
	for c := range res.Centroids {
		res.Centroids[c] = append([]float64(nil), s.centroids[c*dim:(c+1)*dim]...)
	}
	return res
}

// Bound slack. Distances computed from the stored coordinates carry a
// relative rounding error of a few ulps. pruneMargin is the relative margin
// by which a point's bound test must pass before the point keeps its
// assignment unscanned: far above that error, so a skipped point is strictly
// nearer its own centroid in the computed squared distances too. roundSlack
// rounds each lower bound down and each drift up when they are stored, so
// the subtraction that ages a lower bound cannot cancel into an unsound one.
const (
	pruneMargin = 1e-9
	roundSlack  = 1e-12
)

// lloyd runs one seeded k-means++ / Lloyd-iteration pass over the dataset,
// leaving the converged centroids, assignment, sizes and inertia in s. The
// iteration loop performs no allocations: each iteration's assignment and
// update steps are one updatePass over the flat data, and the centroid
// buffers ping-pong between s.centroids and s.next. The assignment step is
// the bounded one; its assignments are exactly plain Lloyd's.
func lloyd(ds *Dataset, cfg *Config, rng *rand.Rand, s *Scratch) {
	n, dim, k := ds.n, ds.dim, cfg.K
	s.resize(n, dim, k)
	seedPlusPlus(ds, k, rng, s)
	centroids, next := s.centroids, s.next
	assign, sizes := s.assign, s.sizes
	// Seeding measured every point against every seed, so the first pass
	// starts from exact bounds.
	for i := 0; i < n; i++ {
		s.upper[i] = math.Sqrt(s.dMin[i])
		s.lower[i] = math.Sqrt(s.lower[i]) * (1 - roundSlack)
	}
	clear(s.drift)
	clear(s.rivalDrift)

	var iterations int
	for iterations = 1; iterations <= cfg.MaxIterations; iterations++ {
		// Assignment + update step: classify each point against the current
		// centroids and accumulate it into its cluster's sum.
		clear(next)
		s.updatePass(ds, centroids, k, next)
		for c := 0; c < k; c++ {
			cent := next[c*dim : (c+1)*dim]
			if sizes[c] == 0 {
				// Empty-cluster repair: reseat on the point farthest from
				// its assigned centroid. Its bounds referred to its old
				// cluster; an infinite upper bound makes the next pass
				// rescan it.
				far := farthestFlat(ds, centroids, assign)
				copy(cent, ds.row(far))
				assign[far] = c
				s.upper[far] = math.Inf(1)
				sizes[c] = 1
				continue
			}
			inv := float64(sizes[c])
			for d := range cent {
				cent[d] /= inv
			}
		}
		// Convergence check; each centroid's drift ages the bounds in the
		// next pass.
		var moved float64
		for c := 0; c < k; c++ {
			d := sqDistFlat(centroids[c*dim:(c+1)*dim], next[c*dim:(c+1)*dim])
			moved = math.Max(moved, d)
			s.drift[c] = math.Sqrt(d) * (1 + roundSlack)
		}
		rivalDrifts(s.drift, s.rivalDrift)
		centroids, next = next, centroids
		if moved <= cfg.Tolerance {
			break
		}
	}
	if iterations > cfg.MaxIterations {
		iterations = cfg.MaxIterations
	}

	// Final assignment against the converged centroids.
	s.inertia = s.inertiaPass(ds, centroids, k)
	s.centroids, s.next = centroids, next
	s.iterations = iterations
}

// updatePass is the assignment step of one Lloyd iteration fused with the
// update step's sums: it leaves every point assigned to the centroid a full
// nearestFlat scan picks, recounts s.sizes and adds each point into its
// cluster's row of sums. It runs in three phases, so the pass over every
// point does no work that depends on the outcome of its bound test:
//
//  1. age every point's bounds by the last update's drifts and collect the
//     points whose test fails into s.cand;
//  2. tighten each candidate's upper bound to the exact distance and test it
//     again; only then rescan it;
//  3. recount the sizes and sum the centroids in point order, as plain
//     Lloyd's update step does, so the sums are bitwise the same.
func (s *Scratch) updatePass(ds *Dataset, centroids []float64, k int, sums []float64) {
	dim := ds.dim
	assign, sizes, upper, lower := s.assign, s.sizes, s.upper, s.lower
	half, drift, rivalDrift := s.half, s.drift, s.rivalDrift
	halfGaps(centroids, k, dim, half)

	cand := s.cand[:ageBounds(assign, upper, lower, drift, rivalDrift, half, s.cand)]

	// Phase 2. Every candidate failed the test with its aged upper bound;
	// an upper bound of +Inf marks a point that repair reseated, whose lower
	// bound still refers to its old cluster, so it goes straight to the scan.
	inf := math.Inf(1)
	for _, i := range cand {
		p := ds.data[i*dim : (i+1)*dim]
		a := assign[i]
		u := upper[i]
		if u != inf {
			u = math.Sqrt(sqDistFlat(p, centroids[a*dim:(a+1)*dim]))
			upper[i] = u
		}
		if !(u < pruneBound(half[a], lower[i])) {
			c, d, second := nearestFlat(p, centroids, k, dim)
			assign[i] = c
			upper[i] = math.Sqrt(d)
			lower[i] = math.Sqrt(second) * (1 - roundSlack)
		}
	}

	// Phase 3.
	clear(sizes)
	for i, a := range assign {
		sizes[a]++
		acc := sums[a*dim : (a+1)*dim]
		for d, v := range ds.data[i*dim : (i+1)*dim] {
			acc[d] += v
		}
	}
}

// ageBounds is updatePass's first phase: it ages every point's bounds by
// the last update's drifts and writes the points whose bound test fails to
// the front of cand, returning their count. Every index is written; the
// count only advances past a failing one, so the loop has no branch that
// depends on the outcome.
func ageBounds(assign []int, upper, lower, drift, rivalDrift, half []float64, cand []int) int {
	n := len(assign)
	upper, lower, cand = upper[:n], lower[:n], cand[:n]
	m := 0
	for i, a := range assign {
		u := upper[i] + drift[a]
		l := lower[i] - rivalDrift[a]
		upper[i], lower[i] = u, l
		cand[m] = i
		if !(u < pruneBound(half[a], l)) {
			m++
		}
	}
	return m
}

// inertiaPass is the final assignment against the converged centroids, in
// one pass: it assigns every point as updatePass does, recounts s.sizes and
// returns the inertia, taking a settled point's distance from sqDistFlat,
// the scan's own sum in the same dimension order.
func (s *Scratch) inertiaPass(ds *Dataset, centroids []float64, k int) float64 {
	dim := ds.dim
	assign, sizes, upper, lower := s.assign, s.sizes, s.upper, s.lower
	half, drift, rivalDrift := s.half, s.drift, s.rivalDrift
	halfGaps(centroids, k, dim, half)
	clear(sizes)
	inf := math.Inf(1)
	var inertia float64
	for i := range assign {
		p := ds.data[i*dim : (i+1)*dim]
		a := assign[i]
		u := upper[i] + drift[a]
		l := lower[i] - rivalDrift[a]
		upper[i], lower[i] = u, l
		bound := pruneBound(half[a], l)
		// The tests are written !(u < bound) so that a NaN bound or
		// distance always takes the scan, as it would in plain Lloyd, which
		// also keeps the scan's distance for a NaN point. An upper bound of
		// +Inf marks a point that repair reseated (see updatePass).
		dist := -1.0 // squared distance to a, when computed
		if !(u < bound) && u != inf {
			dist = sqDistFlat(p, centroids[a*dim:(a+1)*dim])
			u = math.Sqrt(dist)
			upper[i] = u
		}
		if !(u < bound) {
			c, d, second := nearestFlat(p, centroids, k, dim)
			a, dist = c, d
			assign[i] = c
			upper[i] = math.Sqrt(d)
			lower[i] = math.Sqrt(second) * (1 - roundSlack)
		}
		sizes[a]++
		if dist < 0 {
			dist = sqDistFlat(p, centroids[a*dim:(a+1)*dim])
		}
		inertia += dist
	}
	return inertia
}

// pruneBound is the bound a point's upper bound must stay below, by the
// relative pruneMargin, to keep its assignment unscanned: the larger of its
// centroid's half-gap and its own lower bound. The builtin max compiles
// without a branch; it is NaN when either input is, and a NaN bound passes
// no test, so such a point always takes the exact scan.
func pruneBound(half, lower float64) float64 {
	return max(half, lower) * (1 - pruneMargin)
}

// halfGaps sets half[c] to half the distance from centroid c to its nearest
// other centroid (+Inf when k is 1).
func halfGaps(centroids []float64, k, dim int, half []float64) {
	for c := range half {
		half[c] = math.Inf(1)
	}
	for c := 0; c < k; c++ {
		cent := centroids[c*dim : (c+1)*dim]
		for o := c + 1; o < k; o++ {
			h := math.Sqrt(sqDistFlat(cent, centroids[o*dim:(o+1)*dim])) / 2
			half[c] = math.Min(half[c], h)
			half[o] = math.Min(half[o], h)
		}
	}
}

// rivalDrifts sets rival[c] to the largest drift of any centroid other
// than c: what a lower bound on the distance to every other centroid must
// give up after an update.
func rivalDrifts(drift, rival []float64) {
	top, second, topC := 0.0, 0.0, -1
	for c, d := range drift {
		if d > top {
			top, second, topC = d, top, c
		} else if d > second {
			second = d
		}
	}
	for c := range rival {
		rival[c] = top
		if c == topC {
			rival[c] = second
		}
	}
}

func validate(ds *Dataset, cfg *Config) error {
	if cfg.K < 1 {
		return fmt.Errorf("cluster: K = %d, want ≥ 1", cfg.K)
	}
	if cfg.K > ds.n {
		return fmt.Errorf("cluster: K = %d exceeds %d points", cfg.K, ds.n)
	}
	if cfg.Rng == nil {
		return fmt.Errorf("cluster: nil Rng (pass a seeded *rand.Rand for reproducibility)")
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-9
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// seedPlusPlus selects k initial centroids with the k-means++ strategy into
// s.centroids: the first uniformly, each next proportionally to squared
// distance from the nearest chosen centroid. It leaves, for every point,
// the index of its nearest seed in s.assign (ties to the lower index, as
// nearestFlat breaks them), that squared distance in s.dMin and the squared
// distance to its second-nearest seed in s.lower.
func seedPlusPlus(ds *Dataset, k int, rng *rand.Rand, s *Scratch) {
	dim := ds.dim
	copy(s.centroids[:dim], ds.row(rng.Intn(ds.n)))

	// dMin[i] tracks the squared distance from point i to its nearest
	// already-chosen centroid; updated incrementally as centroids are added.
	dMin, near, second := s.dMin, s.assign, s.lower
	first := s.centroids[:dim]
	// total is the potential Σ dMin, summed in point order as each update
	// loop settles dMin[i], so it needs no pass of its own.
	var total float64
	for i := 0; i < ds.n; i++ {
		dMin[i], near[i], second[i] = sqDistFlat(ds.row(i), first), 0, math.Inf(1)
		total += dMin[i]
	}
	for chosen := 1; chosen < k; chosen++ {
		var next int
		if total <= 0 {
			// All points coincide with existing centroids; any choice works.
			next = rng.Intn(ds.n)
		} else {
			target := rng.Float64() * total
			var acc float64
			next = ds.n - 1
			for i, d := range dMin {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		cent := s.centroids[chosen*dim : (chosen+1)*dim]
		copy(cent, ds.row(next))
		total = 0
		for i := 0; i < ds.n; i++ {
			if d := sqDistFlat(ds.row(i), cent); d < dMin[i] {
				dMin[i], second[i], near[i] = d, dMin[i], chosen
			} else if d < second[i] {
				second[i] = d
			}
			total += dMin[i]
		}
	}
}

// nearestFlat returns the index of the centroid closest to p, its exact
// squared distance, and the squared distance to the second-closest centroid
// (+Inf when k is 1). Ties go to the lower index. Candidates that cannot
// beat the second-best-so-far abort the accumulation early
// (partial-distance pruning); the pruning never fires on the winning or the
// second centroid, so both returned distances are the full, bitwise-exact
// sums in dimension order.
func nearestFlat(p, centroids []float64, k, dim int) (int, float64, float64) {
	best, bestD, secondD := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		cent := centroids[c*dim : (c+1)*dim]
		var acc float64
		if dim <= 4 {
			// Tiny rows (the common case after PCA): the pruning branch
			// costs more than it saves.
			for j, v := range cent {
				diff := p[j] - v
				acc += diff * diff
			}
		} else {
			for j, v := range cent {
				diff := p[j] - v
				acc += diff * diff
				if acc >= secondD {
					break
				}
			}
		}
		if acc < bestD {
			best, bestD, secondD = c, acc, bestD
		} else if acc < secondD {
			secondD = acc
		}
	}
	return best, bestD, secondD
}

// farthestFlat returns the index of the point farthest from its assigned
// centroid.
func farthestFlat(ds *Dataset, centroids []float64, assign []int) int {
	dim := ds.dim
	far, farD := 0, -1.0
	for i := 0; i < ds.n; i++ {
		c := assign[i]
		if d := sqDistFlat(ds.data[i*dim:(i+1)*dim], centroids[c*dim:(c+1)*dim]); d > farD {
			far, farD = i, d
		}
	}
	return far
}

// sqDistFlat is the squared Euclidean distance between two equal-length
// rows, accumulated in dimension order (the canonical summation order every
// distance in this package uses, so results are reproducible bitwise).
func sqDistFlat(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}

// nearest returns the index of the centroid (rows of a [][]float64) closest
// to p — the row-slice counterpart of nearestFlat, used by the quality
// metrics and tests.
func nearest(p []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := sqDist(p, cent); d < bestD {
			best, bestD = c, d
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
