package pks

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/workloads"
)

// synthFeatures builds n deterministic 12-D feature rows with a few latent
// groups plus positive golden cycles correlated with the first feature.
func synthFeatures(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	features := make([][]float64, n)
	golden := make([]float64, n)
	for i := range features {
		group := float64(rng.Intn(4))
		row := make([]float64, 12)
		for d := range row {
			row[d] = group*10 + rng.NormFloat64()
		}
		features[i] = row
		golden[i] = 1e5 * (1 + group + 0.1*rng.Float64())
	}
	return features, golden
}

func TestSelectParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		n    int
	}{
		// MinParallelWork: 1 forces the pool on even these small fixtures so
		// the parallel sweep path itself is what gets compared; the
		// work-gated default (which routes sweeps this small inline) is
		// covered by TestSelectWorkGateMatchesForcedPool below.
		{"kmeans-first", Options{Seed: 1, MinParallelWork: 1}, 300},
		{"kmeans-random", Options{Seed: 2, Selection: SelectRandom, MinParallelWork: 1}, 300},
		{"kmeans-centroid", Options{Seed: 3, Selection: SelectCentroid, MinParallelWork: 1}, 300},
		{"kmeans-restarts", Options{Seed: 4, Restarts: 3, MinParallelWork: 1}, 200},
		{"hierarchical", Options{Seed: 5, Clustering: AlgoHierarchical, MinParallelWork: 1}, 150},
		{"subsampled", Options{Seed: 6, ClusterSampleCap: 50, MinParallelWork: 1}, 400},
		{"single-invocation", Options{Seed: 7, MinParallelWork: 1}, 1},
		{"two-invocations", Options{Seed: 8, MinParallelWork: 1}, 2},
		{"work-gated-default", Options{Seed: 9}, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			features, golden := synthFeatures(tc.opts.Seed, tc.n)
			seqOpts := tc.opts
			seqOpts.Parallelism = 1
			seq, err := SelectContext(context.Background(), features, golden, seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 3, 16} {
				parOpts := tc.opts
				parOpts.Parallelism = workers
				par, err := SelectContext(context.Background(), features, golden, parOpts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("parallelism %d: result diverges from sequential (k %d vs %d, err %g vs %g)",
						workers, par.K, seq.K, par.KSelectionError, seq.KSelectionError)
				}
			}
		})
	}
}

func TestSelectParallelAcrossSeeds(t *testing.T) {
	features, golden := synthFeatures(42, 250)
	for seed := int64(1); seed <= 5; seed++ {
		seq, err := SelectContext(context.Background(), features, golden, Options{Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := SelectContext(context.Background(), features, golden, Options{Seed: seed, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("seed %d: parallel result diverges from sequential", seed)
		}
	}
}

func TestSelectInvalidParallelismAndRestarts(t *testing.T) {
	features, golden := synthFeatures(1, 10)
	if _, err := SelectContext(context.Background(), features, golden, Options{Parallelism: -2}); err == nil {
		t.Fatal("want error for negative parallelism")
	}
	if _, err := SelectContext(context.Background(), features, golden, Options{Restarts: -1}); err == nil {
		t.Fatal("want error for negative restarts")
	}
	if _, err := SelectContext(context.Background(), features, golden, Options{MinParallelWork: -5}); err == nil {
		t.Fatal("want error for negative MinParallelWork")
	}
}

// TestSelectWorkGateMatchesForcedPool proves the work-size gate is purely a
// scheduling decision: routing a sweep inline (high threshold) and forcing
// it onto the pool (threshold 1) produce identical results.
func TestSelectWorkGateMatchesForcedPool(t *testing.T) {
	features, golden := synthFeatures(11, 350)
	inline, err := SelectContext(context.Background(), features, golden, Options{Seed: 11, Parallelism: 4, MinParallelWork: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := SelectContext(context.Background(), features, golden, Options{Seed: 11, Parallelism: 4, MinParallelWork: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, pooled) {
		t.Fatalf("work-gated inline sweep diverges from forced pool (k %d vs %d)", inline.K, pooled.K)
	}
}

// TestSelectRestartsNeverWorsenDistortion checks that adding restarts keeps
// the chosen clustering at least as good as advertised: the reported
// k-selection error is still the minimum across the sweep.
func TestSelectRestartsNeverWorsenDistortion(t *testing.T) {
	features, golden := synthFeatures(9, 200)
	for _, restarts := range []int{1, 2, 5} {
		res, err := SelectContext(context.Background(), features, golden, Options{Seed: 3, Restarts: restarts})
		if err != nil {
			t.Fatal(err)
		}
		if res.KSelectionError < 0 || res.K < 1 {
			t.Fatalf("restarts %d: invalid result k=%d err=%g", restarts, res.K, res.KSelectionError)
		}
		total := 0
		for i := range res.Clusters {
			total += res.Clusters[i].Size()
		}
		if total != len(features) {
			t.Fatalf("restarts %d: clusters cover %d of %d invocations", restarts, total, len(features))
		}
	}
}

// BenchmarkSelectPoolCrossover measures the idle-core side of the trade-off
// DefaultMinParallelWork weighs: the k-sweep over the first n invocations
// of the gru workload (scale 0.04) for growing n, run inline and forced onto
// a two-worker pool. Each sub-benchmark is named with the sweep's sweepWork
// estimate. Run it with -cpu 1,2: at GOMAXPROCS 1 the two workers share one
// core, so ns/op is the sweep's CPU cost and the pool's overhead shows
// directly; at 2 it is the wall time.
func BenchmarkSelectPoolCrossover(b *testing.B) {
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workloads.ByName("gru")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.Generate(spec, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	full, err := profiler.NewFullProfiler().Profile(w, hw)
	if err != nil {
		b.Fatal(err)
	}
	allFeatures, allGolden := full.Features(), hw.MeasureWorkload(w)
	opts, err := Options{}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 200, 400, 800, 1600} {
		features, golden := allFeatures[:n], allGolden[:n]
		points, err := reduce(features, DefaultVarianceFraction)
		if err != nil {
			b.Fatal(err)
		}
		work := sweepWork(points, opts, DefaultMaxK)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"inline", Options{Seed: 1, Parallelism: 1}},
			{"pool", Options{Seed: 1, Parallelism: 2, MinParallelWork: 1}},
		} {
			b.Run(fmt.Sprintf("n=%d/work=%.1fMi/%s", n, float64(work)/(1<<20), mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := SelectContext(context.Background(), features, golden, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
