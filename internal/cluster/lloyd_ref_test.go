package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/mat"
	"github.com/gpusampling/sieve/internal/pca"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/workloads"
)

// plainSeeds is textbook k-means++: the first centroid uniformly, then each
// next one drawn with probability proportional to its squared distance from
// the nearest centroid chosen so far. Every draw sums the potential in its
// own pass before scanning for the target, so it checks the production
// seeding's fused total rather than sharing it.
func plainSeeds(ds *Dataset, k int, rng *rand.Rand) []float64 {
	n, dim := ds.n, ds.dim
	centroids := make([]float64, k*dim)
	copy(centroids, ds.row(rng.Intn(n)))
	dMin := make([]float64, n)
	for i := range dMin {
		dMin[i] = plainSqDist(ds.row(i), centroids[:dim])
	}
	for chosen := 1; chosen < k; chosen++ {
		var total float64
		for _, d := range dMin {
			total += d
		}
		next := n - 1
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			for i, d := range dMin {
				if acc += d; acc >= target {
					next = i
					break
				}
			}
		}
		cent := centroids[chosen*dim : (chosen+1)*dim]
		copy(cent, ds.row(next))
		for i := range dMin {
			if d := plainSqDist(ds.row(i), cent); d < dMin[i] {
				dMin[i] = d
			}
		}
	}
	return centroids
}

// plainLloyd is textbook Lloyd: every iteration scans every point against
// every centroid, with no bounds and no pruning. It is the reference the
// bounded kernel must match bit for bit. It seeds with plainSeeds and
// shares no distance code with the production kernels, so a fault in one
// of their fixed-width sums cannot be mirrored here. It reports how many
// empty-cluster repairs it made.
func plainLloyd(ds *Dataset, cfg *Config, rng *rand.Rand) (*Result, int) {
	n, dim, k := ds.n, ds.dim, cfg.K
	centroids := plainSeeds(ds, k, rng)
	next := make([]float64, k*dim)
	assign := make([]int, n)
	sizes := make([]int, k)
	nearest := func(i int) (int, float64) {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if d := plainSqDist(ds.row(i), centroids[c*dim:(c+1)*dim]); d < bestD {
				best, bestD = c, d
			}
		}
		return best, bestD
	}

	repairs := 0
	iterations := 1
	for ; iterations <= cfg.MaxIterations; iterations++ {
		clear(next)
		clear(sizes)
		for i := 0; i < n; i++ {
			c, _ := nearest(i)
			assign[i] = c
			sizes[c]++
			for d, v := range ds.row(i) {
				next[c*dim+d] += v
			}
		}
		for c := 0; c < k; c++ {
			cent := next[c*dim : (c+1)*dim]
			if sizes[c] == 0 {
				// Repair reseats the point farthest from its centroid.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					a := assign[i]
					if d := plainSqDist(ds.row(i), centroids[a*dim:(a+1)*dim]); d > farD {
						far, farD = i, d
					}
				}
				copy(cent, ds.row(far))
				assign[far] = c
				sizes[c] = 1
				repairs++
				continue
			}
			for d := range cent {
				cent[d] /= float64(sizes[c])
			}
		}
		var moved float64
		for c := 0; c < k; c++ {
			moved = math.Max(moved, plainSqDist(centroids[c*dim:(c+1)*dim], next[c*dim:(c+1)*dim]))
		}
		centroids, next = next, centroids
		if moved <= tolerance {
			break
		}
	}
	if iterations > cfg.MaxIterations {
		iterations = cfg.MaxIterations
	}

	res := &Result{Centroids: make([][]float64, k), Assignments: assign, Sizes: make([]int, k), Iterations: iterations}
	for i := 0; i < n; i++ {
		c, d := nearest(i)
		assign[i] = c
		res.Sizes[c]++
		res.Inertia += d
	}
	for c := range res.Centroids {
		res.Centroids[c] = append([]float64(nil), centroids[c*dim:(c+1)*dim]...)
	}
	return res, repairs
}

// plainSqDist is the reference's squared distance: the textbook sum over
// dimensions in order, for every width.
func plainSqDist(a, b []float64) float64 {
	var acc float64
	for j := range a {
		d := a[j] - b[j]
		acc += d * d
	}
	return acc
}

// plainKMeans is KMeansDataset over plainLloyd.
func plainKMeans(tb testing.TB, ds *Dataset, cfg Config) (*Result, int) {
	tb.Helper()
	if err := validate(ds, &cfg); err != nil {
		tb.Fatal(err)
	}
	return plainLloyd(ds, &cfg, cfg.Rng)
}

// diffCase is one dataset and configuration of the differential test.
type diffCase struct {
	name    string
	points  [][]float64
	maxIter int  // Config.MaxIterations (0: the package default)
	repair  bool // the reference must make at least one empty-cluster repair
	nan     bool // the points hold a NaN, so results compare by their printed form
}

// catalogPoints returns the PCA-reduced characteristic vectors pks clusters
// for a catalog workload: standardize, project, keep 90% of the variance.
func catalogPoints(tb testing.TB, name string, scale float64) [][]float64 {
	tb.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workloads.Generate(spec, scale)
	if err != nil {
		tb.Fatal(err)
	}
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		tb.Fatal(err)
	}
	full, err := profiler.Full(w, hw)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := mat.FromRows(full.Features())
	if err != nil {
		tb.Fatal(err)
	}
	_, proj, err := pca.FitTransform(m, 0.9)
	if err != nil {
		tb.Fatal(err)
	}
	return pca.Rows(proj)
}

// gaussianPoints draws n points in dim dimensions around a few centers, with
// every fifth point an exact duplicate of an earlier one.
func gaussianPoints(seed int64, n, dim int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 4)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = r.Float64() * 20
		}
	}
	points := make([][]float64, n)
	for i := range points {
		if i%5 == 4 {
			points[i] = append([]float64(nil), points[r.Intn(i)]...)
			continue
		}
		c := centers[r.Intn(len(centers))]
		points[i] = make([]float64, dim)
		for d := range points[i] {
			points[i][d] = c[d] + r.NormFloat64()
		}
	}
	return points
}

// nanPoints is gaussianPoints with one coordinate set to NaN. Plain Lloyd
// never assigns that point anywhere but cluster 0 and its inertia is +Inf;
// the bounds must not settle it any other way.
func nanPoints(seed int64, n, dim int) [][]float64 {
	points := gaussianPoints(seed, n, dim)
	points[n/3][dim-1] = math.NaN()
	return points
}

// latticePoints puts reps copies of every point of a side^dim integer grid:
// many points sit exactly halfway between centroids, so ties are common.
func latticePoints(side, dim, reps int) [][]float64 {
	total := 1
	for d := 0; d < dim; d++ {
		total *= side
	}
	var points [][]float64
	for r := 0; r < reps; r++ {
		for i := 0; i < total; i++ {
			p := make([]float64, dim)
			for d, v := 0, i; d < dim; d, v = d+1, v/side {
				p[d] = float64(v % side)
			}
			points = append(points, p)
		}
	}
	return points
}

// clumpPoints puts n points on just `sites` distinct locations in 2 to 4
// dimensions: once k exceeds the sites, seeding repeats a location and plain
// Lloyd must repair the empty clusters that follow.
func clumpPoints(n, sites, dim int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		s := float64(i % sites)
		points[i] = []float64{s * 3, s * s, 5 - s, s / 2}[:dim]
	}
	return points
}

// sameResult reports whether two results are identical: reflect.DeepEqual,
// or for results that may hold NaN (which DeepEqual never equates), equal
// printed forms.
func sameResult(got, want *Result, nan bool) bool {
	if nan {
		return fmt.Sprint(*got) == fmt.Sprint(*want)
	}
	return reflect.DeepEqual(got, want)
}

// catalogEntries are the catalog workloads whose PCA points the
// differential test and BenchmarkKMeansSweep cluster: the four entries the
// workload-methods benchmark plans (reduced to widths 2 and 3) and lmr@0.01
// (width 4).
var catalogEntries = []struct {
	name  string
	scale float64
}{{"gst", 1}, {"gru", 0.02}, {"3d-unet", 0.01}, {"ssd-mobilenet", 0.02}, {"lmr", 0.01}}

// differentialCases returns the differential test's cases. Each width with
// fixed-width kernels (2, 3 and 4) has an empty-cluster repair case, a NaN
// case and a low-MaxIterations case; other widths take the stride loop.
func differentialCases(tb testing.TB) []diffCase {
	cases := []diffCase{
		{name: "dim1", points: gaussianPoints(1, 300, 1)},
		{name: "dim2", points: gaussianPoints(2, 300, 2)},
		{name: "dim5", points: gaussianPoints(3, 300, 5)},
		{name: "dim12", points: gaussianPoints(4, 300, 12)},
		{name: "lattice1d", points: latticePoints(9, 1, 4)},
		{name: "lattice2d", points: latticePoints(6, 2, 3)},
		{name: "lattice5d", points: latticePoints(2, 5, 3)},
		{name: "identical", points: clumpPoints(40, 1, 2), repair: true},
		{name: "clumps", points: clumpPoints(60, 7, 2), repair: true},
		{name: "clumps3d", points: clumpPoints(60, 7, 3), repair: true},
		{name: "clumps4d", points: clumpPoints(60, 7, 4), repair: true},
		{name: "maxiter1", points: gaussianPoints(5, 200, 3), maxIter: 1},
		{name: "maxiter2d", points: gaussianPoints(9, 200, 2), maxIter: 2},
		{name: "maxiter4d", points: gaussianPoints(11, 200, 4), maxIter: 2},
		{name: "maxiter3", points: gaussianPoints(6, 200, 12), maxIter: 3},
		{name: "gauss5d", points: gaussianPoints(7, 150, 5)},
		{name: "nan", points: nanPoints(8, 200, 3), nan: true},
		{name: "nan2d", points: nanPoints(10, 200, 2), nan: true},
		{name: "nan4d", points: nanPoints(12, 200, 4), nan: true},
	}
	for _, e := range catalogEntries {
		cases = append(cases, diffCase{
			name:    fmt.Sprintf("%s@%g", e.name, e.scale),
			points:  catalogPoints(tb, e.name, e.scale),
			maxIter: 30, // the pks sweep's iteration cap
		})
	}
	return cases
}

// TestBoundedLloydMatchesPlainLloyd is the differential test of the bounded
// assignment step: for k = 1..20 and five seeds per k (derived the way the
// pks sweep derives them), every Result — centroids, assignments, sizes,
// inertia, iterations — equals textbook Lloyd's exactly. Each k runs on a
// Scratch shared across the sweep, as pks runs it.
func TestBoundedLloydMatchesPlainLloyd(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := NewDataset(tc.points)
			if err != nil {
				t.Fatal(err)
			}
			shared := &Scratch{}
			repairs := 0
			for seed := int64(1); seed <= 5; seed++ {
				for k := 1; k <= 20 && k <= ds.Len(); k++ {
					rngSeed := seed + int64(k)*7919
					cfg := Config{K: k, MaxIterations: tc.maxIter}
					cfg.Rng = rand.New(rand.NewSource(rngSeed))
					want, n := plainKMeans(t, ds, cfg)
					repairs += n
					cfg.Rng = rand.New(rand.NewSource(rngSeed))
					got, err := KMeansDataset(ds, cfg, shared)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(got, want, tc.nan) {
						t.Fatalf("seed %d k=%d: bounded Lloyd diverges from plain Lloyd (inertia %v vs %v, iterations %d vs %d)",
							seed, k, got.Inertia, want.Inertia, got.Iterations, want.Iterations)
					}
				}
			}
			if tc.repair && repairs == 0 {
				t.Fatal("no run repaired an empty cluster; the case no longer covers repair")
			}
		})
	}
}

// FuzzKMeansMatchesPlainLloyd is the differential test over generated
// inputs: widths 1 to 5 (the fixed-width kernels and the stride loop on
// both sides of them), up to 300 points and k up to 20. With raw bytes, each
// coordinate is a small multiple of 1/4 taken from them in turn, so exact
// ties and duplicate points are common, and the byte 0x7f is a NaN; without,
// the points are gaussianPoints. MaxIterations is maxIter mod 31, where 0
// is the package default.
func FuzzKMeansMatchesPlainLloyd(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(200), uint8(20), uint8(30), []byte(nil))
	f.Add(int64(2), uint8(3), uint16(150), uint8(12), uint8(0), []byte(nil))
	f.Add(int64(3), uint8(1), uint16(90), uint8(9), uint8(2), []byte{0, 4, 4, 8, 200})
	f.Add(int64(4), uint8(2), uint16(60), uint8(15), uint8(0), []byte{1, 2, 3, 1, 2, 3, 9})
	f.Add(int64(5), uint8(3), uint16(120), uint8(10), uint8(1), []byte{5, 0x7f, 250, 12, 40})
	f.Add(int64(6), uint8(4), uint16(250), uint8(20), uint8(5), []byte(nil))
	f.Add(int64(7), uint8(5), uint16(300), uint8(7), uint8(0), []byte{0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, k uint8, maxIter uint8, raw []byte) {
		// Widths 1–5, point counts 1–300 and k 1–20 are taken as given;
		// other values wrap into those ranges.
		dim := 1 + (int(width)+4)%5
		count := 1 + (int(n)+299)%300
		var points [][]float64
		if len(raw) == 0 {
			points = gaussianPoints(seed, count, dim)
		} else {
			points = make([][]float64, count)
			for i := range points {
				points[i] = make([]float64, dim)
				for j := range points[i] {
					b := raw[(i*dim+j)%len(raw)]
					points[i][j] = float64(int8(b)) / 4
					if b == 0x7f {
						points[i][j] = math.NaN()
					}
				}
			}
		}
		hasNaN := false
		for _, p := range points {
			for _, v := range p {
				hasNaN = hasNaN || math.IsNaN(v)
			}
		}
		ds, err := NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{K: min(1+(int(k)+19)%20, count), MaxIterations: int(maxIter) % 31}
		cfg.Rng = rand.New(rand.NewSource(seed))
		want, _ := plainKMeans(t, ds, cfg)
		cfg.Rng = rand.New(rand.NewSource(seed))
		got, err := KMeansDataset(ds, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want, hasNaN) {
			t.Fatalf("width %d, %d points, k=%d: bounded Lloyd diverges from plain Lloyd (inertia %v vs %v, iterations %d vs %d)",
				dim, count, cfg.K, got.Inertia, want.Inertia, got.Iterations, want.Iterations)
		}
	})
}
