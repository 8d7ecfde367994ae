package pks

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/obs"
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
		// minWork is selectSweep's threshold: 1 forces the pool on even
		// these small fixtures so the parallel sweep path itself is what
		// gets compared; the default routes sweeps this small inline.
		minWork int64
	}{
		{"kmeans-first", Options{Seed: 1}, 300, 1},
		{"kmeans-random", Options{Seed: 2, Selection: SelectRandom}, 300, 1},
		{"kmeans-centroid", Options{Seed: 3, Selection: SelectCentroid}, 300, 1},
		{"hierarchical", Options{Seed: 5, Clustering: AlgoHierarchical}, 150, 1},
		{"subsampled", Options{Seed: 6, ClusterSampleCap: 50}, 400, 1},
		{"single-invocation", Options{Seed: 7}, 1, 1},
		{"two-invocations", Options{Seed: 8}, 2, 1},
		{"work-gated-default", Options{Seed: 9}, 300, minParallelWork},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			features, golden := synthFeatures(tc.opts.Seed, tc.n)
			seqOpts := tc.opts
			seqOpts.Parallelism = 1
			seq, err := selectSweep(context.Background(), features, golden, seqOpts, tc.minWork)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 3, 16} {
				parOpts := tc.opts
				parOpts.Parallelism = workers
				par, err := selectSweep(context.Background(), features, golden, parOpts, tc.minWork)
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

func TestSelectInvalidParallelism(t *testing.T) {
	features, golden := synthFeatures(1, 10)
	if _, err := SelectContext(context.Background(), features, golden, Options{Parallelism: -2}); err == nil {
		t.Fatal("want error for negative parallelism")
	}
}

// TestSelectDefaultWorkGate pins where SelectContext starts the sweep's
// worker pool, as its pks.select span reports it: inline for the largest
// fixture prefix whose sweepWork is under minParallelWork, on two workers
// for one invocation more.
func TestSelectDefaultWorkGate(t *testing.T) {
	opts, err := Options{Seed: 1, Parallelism: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	features, golden := synthFeatures(12, 8000)
	work := func(n int) int64 {
		points, err := reduce(features[:n], DefaultVarianceFraction)
		if err != nil {
			t.Fatal(err)
		}
		return sweepWork(points, opts.MaxK)
	}
	// Guess the boundary from the work per invocation of the whole fixture,
	// then step to it, so each prefix's own PCA width is what counts.
	n := int(minParallelWork / (work(len(features)) / int64(len(features))))
	for work(n) >= minParallelWork {
		n--
	}
	for work(n+1) < minParallelWork {
		n++
	}
	t.Logf("boundary at n=%d: work %d then %d", n, work(n), work(n+1))
	for _, tc := range []struct {
		n       int
		workers int
	}{{n, 1}, {n + 1, 2}} {
		c := obs.New()
		ctx := obs.WithCollector(context.Background(), c)
		if _, err := SelectContext(ctx, features[:tc.n], golden[:tc.n], opts); err != nil {
			t.Fatal(err)
		}
		sp := c.Report().Find("pks.select")
		if sp == nil {
			t.Fatal("no pks.select span")
		}
		if got := sp.Attrs["sweep_workers"]; got != tc.workers {
			t.Errorf("n=%d (work %d, threshold %d): sweep_workers %v, want %d", tc.n, work(tc.n), int64(minParallelWork), got, tc.workers)
		}
	}
}

// TestSelectWorkGateMatchesForcedPool proves the work-size gate is purely a
// scheduling decision: routing a sweep inline (the default threshold) and
// forcing it onto the pool (threshold 1) produce identical results.
func TestSelectWorkGateMatchesForcedPool(t *testing.T) {
	features, golden := synthFeatures(11, 350)
	inline, err := SelectContext(context.Background(), features, golden, Options{Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := selectSweep(context.Background(), features, golden, Options{Seed: 11, Parallelism: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, pooled) {
		t.Fatalf("work-gated inline sweep diverges from forced pool (k %d vs %d)", inline.K, pooled.K)
	}
}

// BenchmarkSelectPoolCrossover measures the idle-core side of the trade-off
// minParallelWork weighs: the k-sweep over the first n invocations of the
// gru workload (scale 0.08, 3507 invocations) for growing n, run inline and
// forced onto a two-worker pool, with n = 2400 and 3200 on either side of
// the threshold. Each sub-benchmark is named with the sweep's sweepWork
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
	w, err := workloads.Generate(spec, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	full, err := profiler.Full(w, hw)
	if err != nil {
		b.Fatal(err)
	}
	allFeatures, allGolden := full.Features(), hw.MeasureWorkload(w)
	for _, n := range []int{100, 200, 400, 800, 1600, 2400, 3200} {
		features, golden := allFeatures[:n], allGolden[:n]
		points, err := reduce(features, DefaultVarianceFraction)
		if err != nil {
			b.Fatal(err)
		}
		work := sweepWork(points, DefaultMaxK)
		for _, mode := range []struct {
			name    string
			opts    Options
			minWork int64
		}{
			{"inline", Options{Seed: 1, Parallelism: 1}, minParallelWork},
			{"pool", Options{Seed: 1, Parallelism: 2}, 1},
		} {
			b.Run(fmt.Sprintf("n=%d/work=%.1fMi/%s", n, float64(work)/(1<<20), mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := selectSweep(context.Background(), features, golden, mode.opts, mode.minWork); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
