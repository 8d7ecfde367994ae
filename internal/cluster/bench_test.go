package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKMeansSweep times the pks k-sweep's clustering alone: k = 1..20
// over the PCA-reduced characteristic vectors of catalogEntries, with the
// sweep's per-k seeds, its 30-iteration cap and one Scratch shared across
// the sweep.
func BenchmarkKMeansSweep(b *testing.B) {
	for _, e := range catalogEntries {
		ds, err := NewDataset(catalogPoints(b, e.name, e.scale))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s@%g", e.name, e.scale), func(b *testing.B) {
			scratch := &Scratch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 1; k <= 20 && k <= ds.Len(); k++ {
					cfg := Config{K: k, MaxIterations: 30, Rng: rand.New(rand.NewSource(1 + int64(k)*7919))}
					if _, err := KMeansDataset(ds, cfg, scratch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
