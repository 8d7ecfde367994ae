package kde

import (
	"context"
	"encoding/csv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
)

// trimodal draws a deterministic three-mode sample.
func trimodal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		center := []float64{10, 55, 200}[rng.Intn(3)]
		xs[i] = center + rng.NormFloat64()*center/20
	}
	return xs
}

// binnedTolerance is the analytic error bound of the linear-binned evaluator
// against the exact one, doubled for safety: linear interpolation of the
// kernel between grid nodes contributes at most invSqrt2Pi·step²/(8h³), and
// the 6σ truncation mismatch at most ~2e-8 of the density scale 1/(√2π·h).
func binnedTolerance(e *Estimator, xs []float64) float64 {
	step := xs[1] - xs[0]
	h := e.Bandwidth()
	return 2*invSqrt2Pi*step*step/(8*h*h*h) + 2e-8*invSqrt2Pi/h
}

// TestGridBinnedMatchesExact pins the binned fast path to the exact
// evaluator within the analytic error bound, across sample shapes and grid
// resolutions. Grid positions must stay bitwise identical.
func TestGridBinnedMatchesExact(t *testing.T) {
	samples := map[string][]float64{
		"trimodal":   trimodal(1, 400),
		"bimodal":    {100, 101, 102, 100.5, 9000, 9010, 9005, 9001, 9002},
		"duplicates": {5, 5, 5, 5, 5, 50000, 50000, 50000, 50000},
	}
	rng := rand.New(rand.NewSource(2))
	uniform := make([]float64, 1000)
	for i := range uniform {
		uniform[i] = rng.Float64() * 1e6
	}
	samples["uniform"] = uniform

	for name, xs := range samples {
		for _, n := range []int{64, DefaultGridPoints, 2048} {
			e, err := New(xs, 0)
			if err != nil {
				t.Fatal(err)
			}
			gx, gd, err := e.GridContext(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			ex, ed, err := e.GridExact(n)
			if err != nil {
				t.Fatal(err)
			}
			tol := binnedTolerance(e, gx)
			for i := range gx {
				if gx[i] != ex[i] {
					t.Fatalf("%s grid(%d): position %d diverges: %g vs %g", name, n, i, gx[i], ex[i])
				}
				if diff := math.Abs(gd[i] - ed[i]); diff > tol {
					t.Fatalf("%s grid(%d): density %d off by %g > tol %g (binned %g, exact %g)",
						name, n, i, diff, tol, gd[i], ed[i])
				}
			}
		}
	}
}

// TestGridExactMatchesDensity pins the exact evaluator to the per-point
// Density definition: both truncate the kernel at 6 bandwidths, so every
// grid density must be bitwise equal to an independent Density call.
func TestGridExactMatchesDensity(t *testing.T) {
	for _, n := range []int{2, 17, 512, 1500} {
		e, err := New(trimodal(1, 400), 0)
		if err != nil {
			t.Fatal(err)
		}
		xs, ds, err := e.GridExact(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if want := e.Density(xs[i]); ds[i] != want {
				t.Fatalf("grid(%d) point %d: density %g != Density(%g) = %g", n, i, ds[i], xs[i], want)
			}
		}
	}
}

// TestGridNarrowBandwidthFallsBackToExact: when the kernel is narrower than
// binnedMinBandwidthSteps grid steps the binned approximation cannot resolve
// it, so Grid must produce the exact (bitwise Density-equal) result.
func TestGridNarrowBandwidthFallsBackToExact(t *testing.T) {
	xs := trimodal(3, 500)
	const n = 128
	// Pick a bandwidth well under 6 grid steps of the resulting span.
	e, err := New(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gx, gd, err := e.GridContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	step := gx[1] - gx[0]
	if e.Bandwidth() >= binnedMinBandwidthSteps*step {
		t.Fatalf("test setup: bandwidth %g not narrow relative to step %g", e.Bandwidth(), step)
	}
	for i := range gx {
		if want := e.Density(gx[i]); gd[i] != want {
			t.Fatalf("narrow grid point %d: %g != Density %g", i, gd[i], want)
		}
	}
}

// TestGridEdgeCases covers the degenerate inputs the binned evaluator must
// honor: a single sample, an all-equal sample (degenerate Silverman
// bandwidth), samples landing exactly on grid nodes, and extreme dynamic
// range — all pinned against the direct Density evaluator.
func TestGridEdgeCases(t *testing.T) {
	t.Run("single-sample", func(t *testing.T) {
		e, err := New([]float64{5}, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDensity(t, e, 64)
	})
	t.Run("all-equal", func(t *testing.T) {
		e, err := New([]float64{3, 3, 3, 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDensity(t, e, 64)
	})
	t.Run("on-grid-boundaries", func(t *testing.T) {
		// Samples chosen so that after the 3h extension several of them land
		// exactly on grid nodes (integer positions, integer bandwidth, grid
		// step dividing the span evenly).
		xs := make([]float64, 0, 101)
		for i := 0; i <= 100; i++ {
			xs = append(xs, float64(i))
		}
		e, err := New(xs, 2) // span = 112, grid(113) → step 1, nodes at integers
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDensity(t, e, 113)
	})
	t.Run("extreme-dynamic-range", func(t *testing.T) {
		// Twelve orders of magnitude between the modes.
		xs := []float64{1, 1.5, 2, 1.2, 1e12, 1.0001e12, 1.0002e12}
		e, err := New(xs, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDensity(t, e, DefaultGridPoints)
	})
	t.Run("tiny-grid", func(t *testing.T) {
		e, err := New(trimodal(7, 50), 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDensity(t, e, 2)
	})
}

// checkAgainstDensity compares GridContext(n) against per-point Density
// within the binned tolerance (bitwise when the exact path is active).
func checkAgainstDensity(t *testing.T, e *Estimator, n int) {
	t.Helper()
	gx, gd, err := e.GridContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	tol := binnedTolerance(e, gx)
	for i := range gx {
		want := e.Density(gx[i])
		if diff := math.Abs(gd[i] - want); diff > tol {
			t.Fatalf("grid(%d) point %d (x=%g): |%g - %g| = %g > tol %g",
				n, i, gx[i], gd[i], want, diff, tol)
		}
	}
}

// TestValleysBinnedMatchesExact proves the property the byte-identical-plan
// guarantee rests on: the binned grid and the exact grid yield the same
// valley set — and hence the same downstream sample partition — on
// realistic multimodal instruction-count distributions.
func TestValleysBinnedMatchesExact(t *testing.T) {
	cases := map[string][]float64{
		"trimodal-narrow": trimodal(11, 400),
		"bimodal-far":     append(constSlice(100, 100, 3), constSlice(100, 10000, 5)...),
		"unimodal":        normalSample(13, 500, 0, 5),
	}
	for i := int64(0); i < 8; i++ {
		cases["mixture-"+strconv.FormatInt(i, 10)] = mixtureSample(100 + i)
	}
	for name, xs := range cases {
		assertSameValleySplit(t, name, xs)
	}
}

// TestValleysConsistentOnProfileFixture runs the same binned-vs-exact valley
// check over every kernel of the checked-in lmc profile — the fixture the
// service smoke tests and golden plans are built from.
func TestValleysConsistentOnProfileFixture(t *testing.T) {
	kernels := 0
	for name, counts := range lmcFixtureKernels(t) {
		if len(counts) < 2 {
			continue
		}
		kernels++
		assertSameValleySplit(t, name, counts)
	}
	if kernels == 0 {
		t.Fatal("fixture yielded no multi-invocation kernels")
	}
}

// lmcFixtureKernels reads the checked-in lmc profile's instruction counts,
// grouped by kernel name.
func lmcFixtureKernels(t *testing.T) map[string][]float64 {
	t.Helper()
	f, err := os.Open("../../testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byKernel := map[string][]float64{}
	for _, row := range rows[1:] { // skip header kernel,index,seq,cta_size,instruction_count
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		byKernel[row[0]] = append(byKernel[row[0]], v)
	}
	return byKernel
}

// assertSameValleySplit fits a Silverman KDE to xs and requires the binned
// and exact valley sets to induce the same partition of the sample.
func assertSameValleySplit(t *testing.T, name string, xs []float64) {
	t.Helper()
	e, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	binned, err := e.ValleysContext(context.Background(), DefaultGridPoints)
	if err != nil {
		t.Fatal(err)
	}
	ex, ed, err := e.GridExact(DefaultGridPoints)
	if err != nil {
		t.Fatal(err)
	}
	exact := ValleysFromGrid(ex, ed)
	gBinned := SplitAtValleys(xs, binned)
	gExact := SplitAtValleys(xs, exact)
	if len(gBinned) != len(gExact) {
		t.Fatalf("%s: binned valleys %v split into %d groups, exact %v into %d",
			name, binned, len(gBinned), exact, len(gExact))
	}
	for i := range gBinned {
		if len(gBinned[i]) != len(gExact[i]) {
			t.Fatalf("%s: group %d has %d members binned vs %d exact",
				name, i, len(gBinned[i]), len(gExact[i]))
		}
	}
}

// TestGridIntoZeroAllocs is the allocation-regression guard for the KDE hot
// path: once warm, GridInto must not allocate at all.
func TestGridIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	e, err := New(trimodal(5, 2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, DefaultGridPoints)
	ds := make([]float64, DefaultGridPoints)
	ctx := context.Background()
	// Warm the buffer pool.
	if err := e.GridInto(ctx, xs, ds); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := e.GridInto(ctx, xs, ds); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("GridInto allocates %g times per run, want 0", allocs)
	}
}

func TestGridIntoValidatesBuffers(t *testing.T) {
	e, err := New([]float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.GridInto(ctx, make([]float64, 1), make([]float64, 1)); err == nil {
		t.Fatal("want error for 1-point grid")
	}
	if err := e.GridInto(ctx, make([]float64, 8), make([]float64, 4)); err == nil {
		t.Fatal("want error for mismatched buffers")
	}
}

func TestGridContextCancelled(t *testing.T) {
	e, err := New(trimodal(6, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.GridContext(ctx, 64); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func constSlice(n int, v float64, jitterMod int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v + float64(i%jitterMod)
	}
	return out
}

func normalSample(seed int64, n int, mean, sigma float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sigma*rng.NormFloat64()
	}
	return out
}

// mixtureSample mimics Tier-3 instruction counts: 2–4 positive modes with a
// few percent of spread each.
func mixtureSample(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	modes := 2 + rng.Intn(3)
	centers := make([]float64, modes)
	for i := range centers {
		centers[i] = float64(1+rng.Intn(50)) * 1e4
	}
	n := 50 + rng.Intn(400)
	out := make([]float64, n)
	for i := range out {
		c := centers[rng.Intn(modes)]
		out[i] = c * (1 + 0.03*rng.NormFloat64())
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

func TestNewSortedMatchesNew(t *testing.T) {
	xs := trimodal(3, 500)
	viaNew, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	viaSorted, err := NewSorted(sorted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if viaNew.Bandwidth() != viaSorted.Bandwidth() {
		t.Fatalf("bandwidth %g != %g", viaSorted.Bandwidth(), viaNew.Bandwidth())
	}
	if viaNew.N() != viaSorted.N() {
		t.Fatalf("N %d != %d", viaSorted.N(), viaNew.N())
	}
	for _, x := range []float64{0, 10, 55, 123.4, 200} {
		if a, b := viaNew.Density(x), viaSorted.Density(x); a != b {
			t.Fatalf("density at %g: %g != %g", x, b, a)
		}
	}
}

func TestNewSortedRejectsUnsortedAndEmpty(t *testing.T) {
	if _, err := NewSorted([]float64{2, 1}, 0); err == nil {
		t.Fatal("want error for unsorted input")
	}
	if _, err := NewSorted(nil, 0); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestSilvermanBandwidthSortedMatches(t *testing.T) {
	xs := trimodal(4, 300)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if a, b := SilvermanBandwidth(xs), SilvermanBandwidthSorted(sorted); a != b {
		t.Fatalf("SilvermanBandwidthSorted %g != SilvermanBandwidth %g", b, a)
	}
	if SilvermanBandwidthSorted(nil) != 1 {
		t.Fatal("empty sample must fall back to bandwidth 1")
	}
}
