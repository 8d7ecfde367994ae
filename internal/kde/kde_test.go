package kde

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("want error on empty sample")
	}
}

func TestNewDefaultsToSilverman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	e, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := SilvermanBandwidth(xs); e.Bandwidth() != want {
		t.Fatalf("bandwidth = %g, want Silverman %g", e.Bandwidth(), want)
	}
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestDensityIsPositiveAndPeaksAtMass(t *testing.T) {
	xs := []float64{0, 0, 0, 10}
	e, err := New(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Density(0) <= e.Density(5) {
		t.Fatal("density at the heavy mode should exceed density in the gap")
	}
	if e.Density(0) <= 0 || e.Density(10) <= 0 {
		t.Fatal("density must be positive near samples")
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	e, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid rule over a wide grid.
	lo, hi := -30.0, 30.0
	n := 4000
	step := (hi - lo) / float64(n)
	var integral float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*step
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		integral += w * e.Density(x) * step
	}
	if math.Abs(integral-1) > 0.01 {
		t.Fatalf("density integrates to %g, want ≈1", integral)
	}
}

func TestDensityNonNegativeProperty(t *testing.T) {
	f := func(seed int64, probe float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		e, err := New(xs, 0)
		if err != nil {
			return false
		}
		p := math.Mod(math.Abs(probe), 200) - 50
		if math.IsNaN(p) {
			return true
		}
		return e.Density(p) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid(t *testing.T) {
	e, err := New([]float64{1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	xs, ds, err := e.GridContext(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 10 || len(ds) != 10 {
		t.Fatalf("grid sizes %d, %d", len(xs), len(ds))
	}
	if xs[0] >= 1 || xs[9] <= 3 {
		t.Fatalf("grid [%g, %g] should extend past the sample range", xs[0], xs[9])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if _, _, err := e.GridContext(context.Background(), 1); err == nil {
		t.Fatal("want error for 1-point grid")
	}
}

func TestSilvermanBandwidthPositive(t *testing.T) {
	cases := [][]float64{
		{},
		{5},
		{5, 5, 5},
		{0, 0, 0},
		{1, 2, 3, 4, 100},
	}
	for _, xs := range cases {
		if bw := SilvermanBandwidth(xs); bw <= 0 {
			t.Fatalf("Silverman(%v) = %g, want > 0", xs, bw)
		}
	}
}

func TestSilvermanShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := make([]float64, 50)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	large := make([]float64, 5000)
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	if SilvermanBandwidth(large) >= SilvermanBandwidth(small) {
		t.Fatal("bandwidth should shrink as the sample grows")
	}
}

func TestValleysBimodal(t *testing.T) {
	// Two clearly separated modes at 0 and 100.
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.NormFloat64()+0)
		xs = append(xs, rng.NormFloat64()+100)
	}
	e, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	valleys, err := e.ValleysContext(context.Background(), DefaultGridPoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(valleys) != 1 {
		t.Fatalf("valleys = %v, want exactly one", valleys)
	}
	if valleys[0] < 20 || valleys[0] > 80 {
		t.Fatalf("valley at %g, want between the modes", valleys[0])
	}
}

func TestValleysUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 5
	}
	e, err := New(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	valleys, err := e.ValleysContext(context.Background(), DefaultGridPoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(valleys) > 1 {
		t.Fatalf("unimodal sample produced %d valleys: %v", len(valleys), valleys)
	}
}

func TestSplitAtValleys(t *testing.T) {
	xs := []float64{1, 2, 3, 10, 11, 12}
	groups := SplitAtValleys(xs, []float64{6})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 3 || groups[0][2] != 3 {
		t.Fatalf("left group = %v", groups[0])
	}
	if len(groups[1]) != 3 || groups[1][0] != 10 {
		t.Fatalf("right group = %v", groups[1])
	}
	// No valleys: single group.
	one := SplitAtValleys(xs, nil)
	if len(one) != 1 || len(one[0]) != 6 {
		t.Fatalf("no-valley split = %v", one)
	}
	// Valley outside range: still one group, none empty.
	outside := SplitAtValleys(xs, []float64{-5, 500})
	total := 0
	for _, g := range outside {
		if len(g) == 0 {
			t.Fatal("empty group produced")
		}
		total += len(g)
	}
	if total != len(xs) {
		t.Fatalf("samples lost: %d of %d", total, len(xs))
	}
}

func TestSplitUnderCoVHomogeneousPassThrough(t *testing.T) {
	xs := []float64{100, 101, 99, 100}
	groups, err := SplitUnderCoVContext(context.Background(), xs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 4 {
		t.Fatalf("homogeneous sample split unnecessarily: %v", groups)
	}
}

func TestSplitUnderCoVBimodal(t *testing.T) {
	// Far-apart modes give whole-sample CoV near 1; each mode alone is tight.
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 100+float64(i%3))
		xs = append(xs, 10000+float64(i%5))
	}
	groups, err := SplitUnderCoVContext(context.Background(), xs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("bimodal sample not split: %d groups", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		if covOf(g) >= 0.4 {
			t.Fatalf("group CoV %g ≥ threshold; group size %d", covOf(g), len(g))
		}
	}
	if total != len(xs) {
		t.Fatalf("samples lost: %d of %d", total, len(xs))
	}
}

func TestSplitUnderCoVErrors(t *testing.T) {
	if _, err := SplitUnderCoVContext(context.Background(), nil, 0.4); err == nil {
		t.Fatal("want error for empty sample")
	}
	if _, err := SplitUnderCoVContext(context.Background(), []float64{1}, 0); err == nil {
		t.Fatal("want error for non-positive threshold")
	}
}

func TestSplitUnderCoVPropertyAllGroupsSatisfyThreshold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// Mixture of up to 4 modes with positive support, like
			// multi-modal instruction counts.
			mode := float64(1+rng.Intn(4)) * 1000
			xs[i] = mode + rng.NormFloat64()*mode*0.02
			if xs[i] < 1 {
				xs[i] = 1
			}
		}
		groups, err := SplitUnderCoVContext(context.Background(), xs, 0.4)
		if err != nil {
			return false
		}
		total := 0
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			total += len(g)
			if len(g) > 1 && covOf(g) >= 0.4 {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitUnderCoVKeepsDuplicatesTogether(t *testing.T) {
	// Many duplicates of two far values: duplicates of the same value must
	// land in the same stratum.
	var xs []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, 5, 50000)
	}
	groups, err := SplitUnderCoVContext(context.Background(), xs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, v := range g[1:] {
			if v != g[0] {
				// Mixed group is fine only if it satisfies the threshold.
				if covOf(g) >= 0.4 {
					t.Fatalf("mixed high-CoV group: %v", g)
				}
			}
		}
	}
}

func covOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return math.Sqrt(v/float64(len(xs))) / math.Abs(mean)
}
