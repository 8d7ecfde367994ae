package cluster

import (
	"math"
	"testing"
)

// cutAt is the k-cluster cut of one dendrogram over pts.
func cutAt(pts [][]float64, k int) (*Result, error) {
	cuts, err := AgglomerativeCuts(pts, []int{k})
	if err != nil {
		return nil, err
	}
	return cuts[k], nil
}

func TestAgglomerativeValidation(t *testing.T) {
	good := [][]float64{{1}, {2}}
	cases := []struct {
		name string
		pts  [][]float64
		k    int
	}{
		{"no points", nil, 1},
		{"zero dim", [][]float64{{}}, 1},
		{"ragged", [][]float64{{1}, {1, 2}}, 1},
		{"k zero", good, 0},
		{"k too large", good, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := cutAt(c.pts, c.k); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestAgglomerativeSeparatesBlobs(t *testing.T) {
	pts := twoBlobs(30, 77)
	res, err := cutAt(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Assignments[0], res.Assignments[1]
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
	if res.Sizes[a] != 30 || res.Sizes[b] != 30 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	for _, cent := range res.Centroids {
		nearOrigin := math.Hypot(cent[0], cent[1]) < 5
		nearFar := math.Hypot(cent[0]-100, cent[1]-100) < 5
		if !nearOrigin && !nearFar {
			t.Fatalf("centroid %v off blob centers", cent)
		}
	}
}

func TestAgglomerativeKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {5}, {10}}
	res, err := cutAt(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 || res.Inertia > 1e-12 {
		t.Fatalf("K=N should be singleton clusters: %+v", res)
	}
}

func TestAgglomerativeK1(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 2}, {4, 4}}
	res, err := cutAt(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 {
		t.Fatalf("clusters = %d", len(res.Centroids))
	}
	if res.Centroids[0][0] != 2 || res.Centroids[0][1] != 2 {
		t.Fatalf("centroid = %v, want mean (2,2)", res.Centroids[0])
	}
}

func TestAgglomerativeMergesNearestFirst(t *testing.T) {
	// Points at 0, 1, 10: at k=2, {0,1} must merge, 10 stays alone.
	pts := [][]float64{{0}, {1}, {10}}
	res, err := cutAt(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != res.Assignments[1] {
		t.Fatal("nearest pair not merged first")
	}
	if res.Assignments[2] == res.Assignments[0] {
		t.Fatal("far point merged prematurely")
	}
}

func TestAgglomerativeInvariants(t *testing.T) {
	pts := twoBlobs(20, 3)
	for _, k := range []int{1, 2, 5, 10} {
		res, err := cutAt(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centroids) != k || len(res.Sizes) != k {
			t.Fatalf("k=%d: got %d clusters", k, len(res.Centroids))
		}
		total := 0
		for _, s := range res.Sizes {
			if s == 0 {
				t.Fatalf("k=%d: empty cluster", k)
			}
			total += s
		}
		if total != len(pts) {
			t.Fatalf("k=%d: sizes sum to %d", k, total)
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= k {
				t.Fatalf("k=%d: assignment %d out of range", k, a)
			}
		}
	}
}

func TestAgglomerativeCuts(t *testing.T) {
	pts := twoBlobs(15, 41)
	cuts, err := AgglomerativeCuts(pts, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %d", len(cuts))
	}
	// Inertia is monotone non-increasing in k.
	if cuts[1].Inertia < cuts[2].Inertia || cuts[2].Inertia < cuts[4].Inertia {
		t.Fatalf("inertia not monotone: %g, %g, %g", cuts[1].Inertia, cuts[2].Inertia, cuts[4].Inertia)
	}
	// The k=2 cut must match a dendrogram cut at k=2 alone.
	direct, err := cutAt(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Assignments {
		if direct.Assignments[i] != cuts[2].Assignments[i] {
			t.Fatal("a single cut diverges from the same level of a multi-cut")
		}
	}
	if _, err := AgglomerativeCuts(pts, nil); err == nil {
		t.Fatal("want error for empty cut list")
	}
	if _, err := AgglomerativeCuts(pts, []int{0}); err == nil {
		t.Fatal("want error for k=0")
	}
}
