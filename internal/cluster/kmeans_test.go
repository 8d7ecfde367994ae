package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// twoBlobs builds two well-separated 2-D Gaussian blobs.
func twoBlobs(n int, seed int64) [][]float64 {
	r := rng(seed)
	pts := make([][]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{r.NormFloat64(), r.NormFloat64()})
		pts = append(pts, []float64{100 + r.NormFloat64(), 100 + r.NormFloat64()})
	}
	return pts
}

func TestKMeansValidation(t *testing.T) {
	good := [][]float64{{1}, {2}}
	cases := []struct {
		name string
		pts  [][]float64
		cfg  Config
	}{
		{"no points", nil, Config{K: 1, Rng: rng(1)}},
		{"zero dim", [][]float64{{}}, Config{K: 1, Rng: rng(1)}},
		{"ragged", [][]float64{{1}, {1, 2}}, Config{K: 1, Rng: rng(1)}},
		{"k zero", good, Config{K: 0, Rng: rng(1)}},
		{"k too large", good, Config{K: 3, Rng: rng(1)}},
		{"nil rng", good, Config{K: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := KMeans(c.pts, c.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts := twoBlobs(100, 42)
	res, err := KMeans(pts, Config{K: 2, Rng: rng(7)})
	if err != nil {
		t.Fatal(err)
	}
	// Points alternate blob A, blob B. All even indices must share a cluster
	// and all odd indices the other.
	a := res.Assignments[0]
	b := res.Assignments[1]
	if a == b {
		t.Fatal("blobs merged")
	}
	for i, c := range res.Assignments {
		want := a
		if i%2 == 1 {
			want = b
		}
		if c != want {
			t.Fatalf("point %d assigned %d, want %d", i, c, want)
		}
	}
	if res.Sizes[a] != 100 || res.Sizes[b] != 100 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	// Centroids near (0,0) and (100,100).
	for _, cent := range res.Centroids {
		nearOrigin := math.Hypot(cent[0], cent[1]) < 5
		nearFar := math.Hypot(cent[0]-100, cent[1]-100) < 5
		if !nearOrigin && !nearFar {
			t.Fatalf("centroid %v far from both blob centers", cent)
		}
	}
}

func TestKMeansK1CentroidIsMean(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 4}, {4, 2}}
	res, err := KMeans(pts, Config{K: 1, Rng: rng(3)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]-2) > 1e-9 {
		t.Fatalf("centroid = %v, want mean (2,2)", res.Centroids[0])
	}
	if res.Sizes[0] != 3 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	pts := twoBlobs(50, 5)
	a, err := KMeans(pts, Config{K: 4, Rng: rng(99)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, Config{K: 4, Rng: rng(99)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng(seed)
		n := 5 + r.Intn(100)
		dim := 1 + r.Intn(5)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = r.NormFloat64() * 10
			}
		}
		k := 1 + r.Intn(5)
		if k > n {
			k = n
		}
		res, err := KMeans(pts, Config{K: k, Rng: r})
		if err != nil {
			return false
		}
		// Sizes sum to n, no cluster is empty, inertia is finite and ≥ 0,
		// every assignment is in range and matches the nearest centroid.
		total := 0
		for _, s := range res.Sizes {
			if s == 0 {
				return false
			}
			total += s
		}
		if total != n {
			return false
		}
		if res.Inertia < 0 || math.IsNaN(res.Inertia) || math.IsInf(res.Inertia, 0) {
			return false
		}
		for i, p := range pts {
			a := res.Assignments[i]
			if a < 0 || a >= k {
				return false
			}
			if a != nearest(p, res.Centroids) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	pts := twoBlobs(60, 17)
	var prev float64 = math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := KMeans(pts, Config{K: k, Rng: rng(int64(k))})
		if err != nil {
			t.Fatal(err)
		}
		// k-means++ with one run is not guaranteed monotone, but on clean
		// blob data it should be within a generous margin.
		if res.Inertia > prev*1.2 {
			t.Fatalf("inertia grew sharply at k=%d: %g -> %g", k, prev, res.Inertia)
		}
		if res.Inertia < prev {
			prev = res.Inertia
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res, err := KMeans(pts, Config{K: 2, Rng: rng(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %g for identical points", res.Inertia)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != 4 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {10}, {20}}
	res, err := KMeans(pts, Config{K: 3, Rng: rng(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("K=N should give ~zero inertia, got %g", res.Inertia)
	}
	seen := map[int]bool{}
	for _, a := range res.Assignments {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("K=N should use every cluster, got %v", res.Assignments)
	}
}
