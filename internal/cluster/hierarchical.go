package cluster

import (
	"fmt"
	"math"
)

// AgglomerativeCuts performs bottom-up hierarchical clustering with average
// linkage (UPGMA) — the clustering style TBPoint (Huang et al., IPDPS 2014)
// uses to group kernel invocations, referenced in the Sieve paper's related
// work. It builds one dendrogram and returns the clustering at each
// requested cut level k. Building once and cutting many times is what makes
// a k-sweep over hierarchical clusterings affordable.
//
// The distance matrix is O(n²); callers cluster a bounded sample and assign
// the rest to the nearest resulting centroid (as the PKS pipeline does for
// k-means).
func AgglomerativeCuts(points [][]float64, ks []int) (map[int]*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("cluster: no cut levels requested")
	}
	wanted := make(map[int]bool, len(ks))
	minK := n
	for _, k := range ks {
		if k < 1 || k > n {
			return nil, fmt.Errorf("cluster: k = %d outside [1, %d]", k, n)
		}
		wanted[k] = true
		if k < minK {
			minK = k
		}
	}

	// Lance–Williams average linkage over an explicit distance matrix.
	type clust struct {
		size  int
		alive bool
	}
	clusters := make([]clust, n)
	assign := make([]int, n) // point -> cluster id (ids mutate by merging)
	for i := range clusters {
		clusters[i] = clust{size: 1, alive: true}
		assign[i] = i
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := math.Sqrt(sqDist(points[i], points[j]))
			dist[i][j] = d
			dist[j][i] = d
		}
	}

	snapshot := func() *Result {
		remap := make(map[int]int)
		for i := 0; i < n; i++ {
			if clusters[i].alive {
				remap[i] = len(remap)
			}
		}
		res := &Result{
			Centroids:   make([][]float64, len(remap)),
			Assignments: make([]int, n),
			Sizes:       make([]int, len(remap)),
		}
		for c := range res.Centroids {
			res.Centroids[c] = make([]float64, dim)
		}
		for p := range points {
			c := remap[assign[p]]
			res.Assignments[p] = c
			res.Sizes[c]++
			for d, v := range points[p] {
				res.Centroids[c][d] += v
			}
		}
		for c := range res.Centroids {
			for d := range res.Centroids[c] {
				res.Centroids[c][d] /= float64(res.Sizes[c])
			}
		}
		for p := range points {
			res.Inertia += sqDist(points[p], res.Centroids[res.Assignments[p]])
		}
		return res
	}

	out := make(map[int]*Result, len(ks))
	alive := n
	if wanted[alive] {
		out[alive] = snapshot()
	}
	for alive > minK {
		// Find the closest pair of live clusters.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !clusters[i].alive {
				continue
			}
			for j := 0; j < i; j++ {
				if !clusters[j].alive {
					continue
				}
				if dist[i][j] < best {
					bi, bj, best = i, j, dist[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		// Merge bj into bi; update average-linkage distances.
		si := float64(clusters[bi].size)
		sj := float64(clusters[bj].size)
		for m := 0; m < n; m++ {
			if m == bi || m == bj || !clusters[m].alive {
				continue
			}
			d := (si*dist[bi][m] + sj*dist[bj][m]) / (si + sj)
			dist[bi][m] = d
			dist[m][bi] = d
		}
		clusters[bi].size += clusters[bj].size
		clusters[bj].alive = false
		for p := range assign {
			if assign[p] == bj {
				assign[p] = bi
			}
		}
		alive--
		if wanted[alive] {
			out[alive] = snapshot()
		}
	}
	for _, k := range ks {
		if out[k] == nil {
			return nil, fmt.Errorf("cluster: dendrogram never reached %d clusters", k)
		}
	}
	return out, nil
}

// sqDist is the squared Euclidean distance between two equal-length points,
// accumulated in dimension order.
func sqDist(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}
