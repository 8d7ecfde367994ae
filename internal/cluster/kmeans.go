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
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
	inertia    float64
	iterations int
}

// resize readies the scratch for a run over n points of dim dimensions with
// k clusters, reusing prior capacity where possible.
func (s *Scratch) resize(n, dim, k int) {
	s.centroids = growFloats(s.centroids, k*dim)
	s.next = growFloats(s.next, k*dim)
	s.dMin = growFloats(s.dMin, n)
	if cap(s.assign) < n {
		s.assign = make([]int, n)
	}
	s.assign = s.assign[:n]
	if cap(s.sizes) < k {
		s.sizes = make([]int, k)
	}
	s.sizes = s.sizes[:k]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
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
			lloyd(ds, &cfg, rand.New(rand.NewSource(seed)), scratch)
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
			lloyd(ds, &cfg, rand.New(rand.NewSource(seed)), &s)
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

// lloyd runs one seeded k-means++ / Lloyd-iteration pass over the dataset,
// leaving the converged centroids, assignment, sizes and inertia in s. The
// iteration loop performs no allocations: the assignment and update steps
// are fused into one pass over the flat data, and the centroid buffers
// ping-pong between s.centroids and s.next.
func lloyd(ds *Dataset, cfg *Config, rng *rand.Rand, s *Scratch) {
	n, dim, k := ds.n, ds.dim, cfg.K
	s.resize(n, dim, k)
	seedPlusPlus(ds, k, rng, s)
	centroids, next := s.centroids, s.next
	assign, sizes := s.assign, s.sizes

	var iterations int
	for iterations = 1; iterations <= cfg.MaxIterations; iterations++ {
		// Fused assignment + update step: classify each point against the
		// current centroids and accumulate it into its cluster's sum in the
		// same pass over the flat data.
		clear(next)
		for c := range sizes {
			sizes[c] = 0
		}
		for i := 0; i < n; i++ {
			p := ds.data[i*dim : (i+1)*dim]
			c, _ := nearestFlat(p, centroids, k, dim)
			assign[i] = c
			sizes[c]++
			acc := next[c*dim : (c+1)*dim]
			for d, v := range p {
				acc[d] += v
			}
		}
		for c := 0; c < k; c++ {
			cent := next[c*dim : (c+1)*dim]
			if sizes[c] == 0 {
				// Empty-cluster repair: reseat on the point farthest from
				// its assigned centroid.
				far := farthestFlat(ds, centroids, assign)
				copy(cent, ds.row(far))
				assign[far] = c
				sizes[c] = 1
				continue
			}
			inv := float64(sizes[c])
			for d := range cent {
				cent[d] /= inv
			}
		}
		// Convergence check.
		var moved float64
		for c := 0; c < k; c++ {
			moved = math.Max(moved, sqDistFlat(centroids[c*dim:(c+1)*dim], next[c*dim:(c+1)*dim]))
		}
		centroids, next = next, centroids
		if moved <= cfg.Tolerance {
			break
		}
	}
	if iterations > cfg.MaxIterations {
		iterations = cfg.MaxIterations
	}

	// Final assignment against the converged centroids; the winning
	// candidate's distance is fully accumulated, so inertia is bitwise
	// identical to a separate sqDist pass.
	for c := range sizes {
		sizes[c] = 0
	}
	var inertia float64
	for i := 0; i < n; i++ {
		c, d := nearestFlat(ds.data[i*dim:(i+1)*dim], centroids, k, dim)
		assign[i] = c
		sizes[c]++
		inertia += d
	}
	s.centroids, s.next = centroids, next
	s.inertia = inertia
	s.iterations = iterations
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
// distance from the nearest chosen centroid.
func seedPlusPlus(ds *Dataset, k int, rng *rand.Rand, s *Scratch) {
	dim := ds.dim
	copy(s.centroids[:dim], ds.row(rng.Intn(ds.n)))

	// dMin[i] tracks the squared distance from point i to its nearest
	// already-chosen centroid; updated incrementally as centroids are added.
	dMin := s.dMin
	first := s.centroids[:dim]
	for i := 0; i < ds.n; i++ {
		dMin[i] = sqDistFlat(ds.row(i), first)
	}
	for chosen := 1; chosen < k; chosen++ {
		var total float64
		for _, d := range dMin {
			total += d
		}
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
		for i := 0; i < ds.n; i++ {
			if d := sqDistFlat(ds.row(i), cent); d < dMin[i] {
				dMin[i] = d
			}
		}
	}
}

// nearestFlat returns the index of the centroid closest to p and its exact
// squared distance. Candidates that cannot beat the best-so-far abort the
// accumulation early (partial-distance pruning); the pruning never fires on
// the winning centroid, so the returned distance is the full, bitwise-exact
// sum in dimension order.
func nearestFlat(p, centroids []float64, k, dim int) (int, float64) {
	best, bestD := 0, math.Inf(1)
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
				if acc >= bestD {
					break
				}
			}
		}
		if acc < bestD {
			best, bestD = c, acc
		}
	}
	return best, bestD
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
