// Benchmarks regenerating every table and figure of the paper's evaluation
// (one per experiment), plus the ablation studies DESIGN.md calls out and
// micro-benchmarks of the core algorithms. Accuracy results are attached as
// custom benchmark metrics (err-pct, speedup-x, …) so `go test -bench`
// output doubles as an experiment record.
package sieve_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/experiments"
	"github.com/gpusampling/sieve/internal/kde"
)

// benchScale keeps per-iteration work bounded; the experiments scale
// distributional shape, not structure.
const benchScale = 0.02

func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Config{Scale: benchScale})
}

func BenchmarkTable1Inventory(b *testing.B) {
	r := newRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2TierFractions(b *testing.B) {
	r := newRunner()
	var rows []experiments.TierRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = r.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
	var t1 float64
	for _, row := range rows {
		t1 += row.Fractions[0][0]
	}
	b.ReportMetric(100*t1/float64(len(rows)), "tier1-pct")
}

func BenchmarkFig3Accuracy(b *testing.B) {
	r := newRunner()
	var evs []*experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		if evs, err = r.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	var sieveSum, pksSum float64
	for _, ev := range evs {
		sieveSum += ev.Method("sieve").Error
		pksSum += ev.Method("pks").Error
	}
	n := float64(len(evs))
	b.ReportMetric(100*sieveSum/n, "sieve-err-pct")
	b.ReportMetric(100*pksSum/n, "pks-err-pct")
}

func BenchmarkFig4Dispersion(b *testing.B) {
	r := newRunner()
	var evs []*experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		if evs, err = r.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	var sieveCoV, pksCoV float64
	for _, ev := range evs {
		sieveCoV += ev.Method("sieve").CoV
		pksCoV += ev.Method("pks").CoV
	}
	n := float64(len(evs))
	b.ReportMetric(sieveCoV/n, "sieve-cov")
	b.ReportMetric(pksCoV/n, "pks-cov")
}

func BenchmarkFig5Selection(b *testing.B) {
	r := newRunner()
	var rows []experiments.SelectionRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = r.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
	var first, random, centroid float64
	for _, row := range rows {
		first += row.First
		random += row.Random
		centroid += row.Centroid
	}
	n := float64(len(rows))
	b.ReportMetric(100*first/n, "first-err-pct")
	b.ReportMetric(100*random/n, "random-err-pct")
	b.ReportMetric(100*centroid/n, "centroid-err-pct")
}

func BenchmarkFig6Speedup(b *testing.B) {
	r := newRunner()
	var evs []*experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		if evs, err = r.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	var sieveSp, pksSp float64
	var n float64
	for _, ev := range evs {
		if ev.Name == "gst" {
			continue
		}
		sieveSp += ev.Method("sieve").Speedup
		pksSp += ev.Method("pks").Speedup
		n++
	}
	b.ReportMetric(sieveSp/n, "sieve-speedup-x")
	b.ReportMetric(pksSp/n, "pks-speedup-x")
}

func BenchmarkFig7Profiling(b *testing.B) {
	r := newRunner()
	var rows []experiments.ProfilingRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = r.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
	var sp float64
	for _, row := range rows {
		sp += row.Speedup()
	}
	b.ReportMetric(sp/float64(len(rows)), "profiling-speedup-x")
}

func BenchmarkFig8Traditional(b *testing.B) {
	r := newRunner()
	var evs []*experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		if evs, err = r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	var sieveSum, pksSum float64
	for _, ev := range evs {
		sieveSum += ev.Method("sieve").Error
		pksSum += ev.Method("pks").Error
	}
	n := float64(len(evs))
	b.ReportMetric(100*sieveSum/n, "sieve-err-pct")
	b.ReportMetric(100*pksSum/n, "pks-err-pct")
}

func BenchmarkFig9CrossArch(b *testing.B) {
	r := newRunner()
	var rows []experiments.CrossArchRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = r.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
	var sieveSum, pksSum float64
	for _, row := range rows {
		sieveSum += row.SieveError()
		pksSum += row.PKSError()
	}
	n := float64(len(rows))
	b.ReportMetric(100*sieveSum/n, "sieve-err-pct")
	b.ReportMetric(100*pksSum/n, "pks-err-pct")
}

func BenchmarkFig10Theta(b *testing.B) {
	r := newRunner()
	var points []experiments.ThetaPoint
	var err error
	for i := 0; i < b.N; i++ {
		if points, err = r.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*points[0].AvgError, "theta0.1-err-pct")
	b.ReportMetric(100*points[len(points)-1].AvgError, "theta1.0-err-pct")
}

// BenchmarkSimulation reproduces Section V-G: trace the representatives of a
// workload and simulate them, serially and in parallel.
func BenchmarkSimulation(b *testing.B) {
	w, err := sieve.GenerateWorkload("gms", 0.005)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	profile, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sieve.Sample(sieve.ProfileRows(profile), sieve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	traces, err := sieve.GeneratePlanTraces(w, plan, 10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	simulator, err := sieve.NewSimulator(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulator.SimulateAll(traces); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulator.SimulateParallel(traces, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------------

// workloadFixture prepares a challenging workload with golden cycles once.
type workloadFixture struct {
	w      *sieve.Workload
	golden []float64
	total  float64
	rows   []sieve.InvocationProfile
}

func newFixture(b *testing.B, name string, scale float64) *workloadFixture {
	b.Helper()
	w, err := sieve.GenerateWorkload(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	profile, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		b.Fatal(err)
	}
	golden := hw.MeasureWorkload(w)
	var total float64
	for _, c := range golden {
		total += c
	}
	return &workloadFixture{w: w, golden: golden, total: total, rows: sieve.ProfileRows(profile)}
}

func (f *workloadFixture) at(i int) (float64, error) { return f.golden[i], nil }

func (f *workloadFixture) planError(b *testing.B, plan *sieve.Plan) float64 {
	b.Helper()
	pred, err := plan.Predict(f.at)
	if err != nil {
		b.Fatal(err)
	}
	return abs(pred.Cycles-f.total) / f.total
}

// pksError plans pks over the given feature rows through SampleMethod and
// returns its prediction error.
func (f *workloadFixture) pksError(b *testing.B, features [][]float64, opts sieve.PKSOptions) float64 {
	b.Helper()
	p := &sieve.MethodProfile{Rows: f.rows, Features: features, GoldenCycles: f.golden}
	plan, err := sieve.SampleMethod("pks", p, sieve.MethodOptions{PKS: opts})
	if err != nil {
		b.Fatal(err)
	}
	return f.planError(b, plan)
}

// BenchmarkAblationSieveSelection compares Sieve's representative policies
// (the paper found dominant-CTA best and max-CTA less accurate).
func BenchmarkAblationSieveSelection(b *testing.B) {
	f := newFixture(b, "lmc", benchScale)
	for _, policy := range []sieve.SelectionPolicy{
		sieve.SelectDominantCTAFirst, sieve.SelectFirstChronological, sieve.SelectMaxCTA,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				plan, err := sieve.Sample(f.rows, sieve.Options{Selection: policy})
				if err != nil {
					b.Fatal(err)
				}
				e = f.planError(b, plan)
			}
			b.ReportMetric(100*e, "err-pct")
		})
	}
}

// BenchmarkAblationEstimator isolates the estimator from stratification:
// identical Sieve strata evaluated with Sieve's instruction-weighted
// harmonic-mean-IPC estimator versus PKS's invocation-count × representative-
// cycles estimator.
func BenchmarkAblationEstimator(b *testing.B) {
	f := newFixture(b, "rnnt", benchScale)
	plan, err := sieve.Sample(f.rows, sieve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("harmonic-ipc", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = f.planError(b, plan)
		}
		b.ReportMetric(100*e, "err-pct")
	})
	b.Run("count-weighted-cycles", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			var pred float64
			for _, s := range plan.Strata {
				pred += float64(len(s.Invocations)) * f.golden[s.Representative]
			}
			e = abs(pred-f.total) / f.total
		}
		b.ReportMetric(100*e, "err-pct")
	})
}

// BenchmarkAblationTier3Splitter compares KDE valley-splitting against
// equal-width binning for Tier-3 kernels.
func BenchmarkAblationTier3Splitter(b *testing.B) {
	f := newFixture(b, "spt", benchScale)
	for _, splitter := range []sieve.Splitter{sieve.SplitKDE, sieve.SplitEqualWidth, sieve.SplitGMM} {
		b.Run(splitter.String(), func(b *testing.B) {
			var e float64
			var strata int
			for i := 0; i < b.N; i++ {
				plan, err := sieve.Sample(f.rows, sieve.Options{Tier3Splitter: splitter})
				if err != nil {
					b.Fatal(err)
				}
				e = f.planError(b, plan)
				strata = plan.NumStrata()
			}
			b.ReportMetric(100*e, "err-pct")
			b.ReportMetric(float64(strata), "strata")
		})
	}
}

// BenchmarkAblationPKSKCap raises PKS's cluster cap beyond the paper's 20 to
// test whether more clusters close the gap.
func BenchmarkAblationPKSKCap(b *testing.B) {
	f := newFixture(b, "dcg", 0.01)
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	full, err := sieve.ProfileFull(f.w, hw)
	if err != nil {
		b.Fatal(err)
	}
	features := sieve.FeatureRows(full)
	for _, maxK := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("k%d", maxK), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = f.pksError(b, features, sieve.PKSOptions{Seed: 1, MaxK: maxK})
			}
			b.ReportMetric(100*e, "err-pct")
		})
	}
}

// BenchmarkAblationTwoLevelProfiling compares PKS fed by the full 12-metric
// profile against PKS fed by the cheaper two-level profile (the mitigation
// described in §II-B): profiling cost drops, accuracy degrades.
func BenchmarkAblationTwoLevelProfiling(b *testing.B) {
	f := newFixture(b, "lmc", 0.01)
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	profiles := map[string]*sieve.Profile{}
	if profiles["full"], err = sieve.ProfileFull(f.w, hw); err != nil {
		b.Fatal(err)
	}
	if profiles["two-level"], err = sieve.ProfileTwoLevel(f.w, hw, 300); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"full", "two-level"} {
		profile := profiles[name]
		b.Run(name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = f.pksError(b, sieve.FeatureRows(profile), sieve.PKSOptions{Seed: 1})
			}
			b.ReportMetric(100*e, "err-pct")
			b.ReportMetric(profile.WallSeconds, "profiling-sec")
		})
	}
}

// BenchmarkAblationPKP measures Principal Kernel Projection on top of Sieve:
// how much of each representative trace still needs simulating, and the
// projection error versus full trace simulation.
func BenchmarkAblationPKP(b *testing.B) {
	w, err := sieve.GenerateWorkload("lmc", 0.005)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	profile, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sieve.Sample(sieve.ProfileRows(profile), sieve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	traces, err := sieve.GeneratePlanTraces(w, plan, 120000, 1)
	if err != nil {
		b.Fatal(err)
	}
	simulator, err := sieve.NewSimulator(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	var fracSum, errSum float64
	var n int
	for i := 0; i < b.N; i++ {
		fracSum, errSum, n = 0, 0, 0
		for _, tr := range traces {
			full, err := simulator.Simulate(tr)
			if err != nil {
				b.Fatal(err)
			}
			proj, err := simulator.SimulateProjected(tr, sieve.PKPOptions{})
			if err != nil {
				b.Fatal(err)
			}
			fracSum += proj.SimulatedFraction
			errSum += abs(float64(proj.SMCycles)-float64(full.SMCycles)) / float64(full.SMCycles)
			n++
		}
	}
	b.ReportMetric(100*fracSum/float64(n), "simulated-pct")
	b.ReportMetric(100*errSum/float64(n), "projection-err-pct")
}

// BenchmarkBaselineClustering compares the baseline with its two clustering
// engines: PKS's k-means and TBPoint-style hierarchical clustering.
func BenchmarkBaselineClustering(b *testing.B) {
	f := newFixture(b, "rnnt", 0.01)
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	full, err := sieve.ProfileFull(f.w, hw)
	if err != nil {
		b.Fatal(err)
	}
	features := sieve.FeatureRows(full)
	for _, algo := range []sieve.PKSClusteringAlgo{sieve.PKSAlgoKMeans, sieve.PKSAlgoHierarchical} {
		b.Run(algo.String(), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = f.pksError(b, features, sieve.PKSOptions{Seed: 1, Clustering: algo})
			}
			b.ReportMetric(100*e, "err-pct")
		})
	}
}

// --- micro-benchmarks -----------------------------------------------------------

// BenchmarkSample measures the observability layer's overhead on the
// materializing sampler: nocollector is the production path (every
// instrumentation site reduced to one context lookup), collector records the
// full span tree. The bench-obs Makefile target records both in
// BENCH_obs.json; their difference is what a sampled sieved request adds to
// its compute.
func BenchmarkSample(b *testing.B) {
	f := newFixture(b, "nst", benchScale)
	b.Run("nocollector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sieve.SampleContext(context.Background(), f.rows, sieve.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(f.rows)), "invocations")
	})
	b.Run("collector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := sieve.WithCollector(context.Background(), sieve.NewCollector())
			if _, err := sieve.SampleContext(ctx, f.rows, sieve.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(f.rows)), "invocations")
	})
}

// BenchmarkStratify compares the sequential per-kernel walk against the
// bounded-worker fan-out (Parallelism: 0 = GOMAXPROCS). Both produce
// byte-identical plans; only the wall clock differs.
func BenchmarkStratify(b *testing.B) {
	f := newFixture(b, "nst", benchScale)
	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sieve.Sample(f.rows, sieve.Options{Parallelism: bc.parallelism}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(f.rows)), "invocations")
		})
	}
}

// BenchmarkPKSSelect compares the sequential k = 1..20 sweep against the
// parallel sweep with per-k deterministic RNGs.
func BenchmarkPKSSelect(b *testing.B) {
	f := newFixture(b, "lmc", 0.01)
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	full, err := sieve.ProfileFull(f.w, hw)
	if err != nil {
		b.Fatal(err)
	}
	features := sieve.FeatureRows(full)
	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sieve.PKSSelect(features, f.golden, sieve.PKSOptions{Seed: 1, Parallelism: bc.parallelism}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKDEGrid measures density-grid evaluation — the Tier-3 splitting
// hot path. "per-point" replays the pre-binning algorithm (an independent
// evaluation per grid point via Density); "exact" is the sliding-window
// reference evaluator (GridExact); "binned" is the production Grid path,
// which linear-bins samples onto the grid and convolves with a truncated
// kernel table when the bandwidth spans enough grid steps, falling back to
// the exact evaluator otherwise (the narrow regime exercises the fallback).
// "binned-into" is the same path through GridInto with caller-owned buffers,
// the zero-allocation form the splitter uses. "lmc-tier3/binned-into" is
// the traffic a Sieve miss serves: every Tier-3 kernel of the checked-in lmc
// profile (tens of samples each) gridded at DefaultGridPoints, one op per
// profile.
func BenchmarkKDEGrid(b *testing.B) {
	b.Run("lmc-tier3/binned-into", benchKDEGridTier3)

	const nSamples, gridPoints = 50000, 2048
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, nSamples)
	for i := range samples {
		center := []float64{1e4, 5e4, 2.5e5}[rng.Intn(3)]
		samples[i] = center * (1 + 0.05*rng.NormFloat64())
	}
	for _, bw := range []struct {
		name      string
		bandwidth float64
	}{
		{"silverman", 0},
		{"narrow", 25},
	} {
		est, err := kde.New(samples, bw.bandwidth)
		if err != nil {
			b.Fatal(err)
		}
		bounds, _, err := est.GridContext(context.Background(), 2) // the [lo, hi] span every variant evaluates
		if err != nil {
			b.Fatal(err)
		}
		lo, step := bounds[0], (bounds[1]-bounds[0])/float64(gridPoints-1)
		b.Run(bw.name+"/per-point", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sink float64
				for p := 0; p < gridPoints; p++ {
					sink += est.Density(lo + float64(p)*step)
				}
				_ = sink
			}
		})
		b.Run(bw.name+"/exact", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := est.GridExact(gridPoints); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bw.name+"/binned", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := est.GridContext(context.Background(), gridPoints); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bw.name+"/binned-into", func(b *testing.B) {
			xs, ds := make([]float64, gridPoints), make([]float64, gridPoints)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := est.GridInto(ctx, xs, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchKDEGridTier3(b *testing.B) {
	f, err := os.Open("testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p, err := sieve.ReadProfileCSV(f)
	if err != nil {
		b.Fatal(err)
	}
	rows := sieve.ProfileRows(p)
	sums, err := sieve.Characterize(rows, 0)
	if err != nil {
		b.Fatal(err)
	}
	counts := map[string][]float64{}
	for _, r := range rows {
		counts[r.Kernel] = append(counts[r.Kernel], r.InstructionCount)
	}
	var ests []*kde.Estimator
	for _, s := range sums {
		if s.Tier != sieve.Tier3 {
			continue
		}
		est, err := kde.New(counts[s.Kernel], 0)
		if err != nil {
			b.Fatal(err)
		}
		ests = append(ests, est)
	}
	if len(ests) == 0 {
		b.Fatal("profile has no Tier-3 kernels")
	}
	xs, ds := make([]float64, kde.DefaultGridPoints), make([]float64, kde.DefaultGridPoints)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, est := range ests {
			if err := est.GridInto(ctx, xs, ds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHardwareMeasure(b *testing.B) {
	w, err := sieve.GenerateWorkload("lgt", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.MeasureWorkload(w)
	}
	b.ReportMetric(float64(w.NumInvocations()), "invocations")
}

func BenchmarkGenerateWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sieve.GenerateWorkload("nst", benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	w, err := sieve.GenerateWorkload("gms", 0.005)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sieve.GenerateTrace(&w.Invocations[0], 20000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkSampleStream measures the bounded-memory streaming sampler
// against the materializing path on a synthetic multi-kernel source. The
// rows are generated on the fly, so the streaming variants' allocs/op stay
// bounded by kernels × reservoir while the materialized variant must first
// build the full row slice — the gap widens with the invocation count (see
// BENCH_stream.json).
func BenchmarkSampleStream(b *testing.B) {
	// synthSource yields n deterministic rows across 8 kernels mixing the
	// three tiers: constant, low-variance and bimodal instruction counts.
	kernels := [8]string{"kern0", "kern1", "kern2", "kern3", "kern4", "kern5", "kern6", "kern7"}
	synthSource := func(n int) sieve.RowSource {
		i := 0
		return func() (sieve.InvocationProfile, error) {
			if i >= n {
				return sieve.InvocationProfile{}, io.EOF
			}
			k := i % 8
			h := uint64(i)*0x9e3779b97f4a7c15 + uint64(k)
			h ^= h >> 29
			jitter := float64(h%1000) / 1000
			var instr float64
			switch {
			case k < 3: // Tier-1: constant per kernel
				instr = float64(1000 * (k + 1))
			case k < 6: // Tier-2: a few percent of spread
				instr = float64(5000*(k+1)) * (1 + 0.05*jitter)
			default: // Tier-3: bimodal
				instr = float64(20000 * (1 + int(h%2)*10))
				instr *= 1 + 0.02*jitter
			}
			row := sieve.InvocationProfile{
				Kernel:           kernels[k],
				Index:            i,
				InstructionCount: instr,
				CTASize:          64 << (k % 3),
			}
			i++
			return row, nil
		}
	}
	for _, n := range []int{20000, 80000, 320000} {
		opts := sieve.MethodOptions{Stream: true, ReservoirSize: 1024}
		stream := func(b *testing.B, opts sieve.MethodOptions) {
			b.ReportAllocs()
			var p sieve.MethodProfile
			for i := 0; i < b.N; i++ {
				p.Source = synthSource(n)
				if _, err := sieve.SampleMethod("", &p, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("stream/seq/n=%d", n), func(b *testing.B) {
			o := opts
			o.Core.Parallelism = 1
			stream(b, o)
		})
		b.Run(fmt.Sprintf("stream/par/n=%d", n), func(b *testing.B) { stream(b, opts) })
		b.Run(fmt.Sprintf("materialized/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next := synthSource(n)
				rows := make([]sieve.InvocationProfile, 0)
				for {
					r, err := next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					rows = append(rows, r)
				}
				if _, err := sieve.Sample(rows, sieve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
