package kde

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// denseGridBinned is the linear-binned evaluator before it skipped empty
// bins: the same binning and kernel table, then every grid point multiplies
// every bin in its ±halfW window, empty or not. It is the reference
// gridBinned is pinned to bit for bit.
func (e *Estimator) denseGridBinned(xs, ds []float64, lo, step float64) {
	g := len(xs)
	h := e.bandwidth
	bins := make([]float64, g)
	invStep := 1 / step
	for _, s := range e.samples {
		t := (s - lo) * invStep
		j := int(t)
		if j < 0 {
			j = 0
		}
		if j >= g-1 {
			bins[g-1]++
			continue
		}
		frac := t - float64(j)
		bins[j] += 1 - frac
		bins[j+1] += frac
	}
	halfW := int(6*h*invStep) + 1
	if halfW > g-1 {
		halfW = g - 1
	}
	ktab := make([]float64, halfW+1)
	r := step / h
	for d := 0; d <= halfW; d++ {
		u := float64(d) * r
		ktab[d] = math.Exp(-0.5 * u * u)
	}
	norm := invSqrt2Pi / (float64(len(e.samples)) * h)
	for i := range ds {
		first, last := i-halfW, i+halfW
		if first < 0 {
			first = 0
		}
		if last > g-1 {
			last = g - 1
		}
		var acc float64
		for j, d := i, 0; j >= first; j, d = j-1, d+1 {
			acc += bins[j] * ktab[d]
		}
		for j, d := i+1, 1; j <= last; j, d = j+1, d+1 {
			acc += bins[j] * ktab[d]
		}
		ds[i] = acc * norm
	}
}

// Sample shapes the exactness checks draw from.
const (
	shapeDuplicated  = iota // a few distinct values, each repeated
	shapeMultimodal         // 2–5 well-separated modes
	shapeHeavyTailed        // Pareto(α=1.1): most mass low, a long right tail
	shapeUniform            // every bin occupied at dense sizes
	numShapes
)

// shapedSample draws n deterministic samples of the given shape.
func shapedSample(seed int64, shape, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	switch shape % numShapes {
	case shapeDuplicated:
		vals := make([]float64, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = float64(1 + rng.Intn(1000))
		}
		for i := range xs {
			xs[i] = vals[rng.Intn(len(vals))]
		}
	case shapeMultimodal:
		centers := make([]float64, 2+rng.Intn(4))
		for i := range centers {
			centers[i] = float64(1+rng.Intn(50)) * 1e4
		}
		for i := range xs {
			c := centers[rng.Intn(len(centers))]
			xs[i] = c * (1 + 0.03*rng.NormFloat64())
		}
	case shapeHeavyTailed:
		for i := range xs {
			xs[i] = 1e3 * math.Pow(1-rng.Float64(), -1/1.1)
		}
	default:
		for i := range xs {
			xs[i] = rng.Float64() * 1e6
		}
	}
	return xs
}

// checkOccupiedBits evaluates the n-point binned grid of xs at bandwidth h
// (≤ 0: Silverman) with gridBinned and with denseGridBinned, bypassing the
// bandwidth gate so narrow kernels are covered too, and requires every
// density to match bit for bit. When the gate admits the binned path it also
// checks GridInto itself. It reports whether the gate admitted it.
func checkOccupiedBits(t *testing.T, xs []float64, h float64, n int) bool {
	t.Helper()
	e, err := New(xs, h)
	if err != nil {
		t.Fatal(err)
	}
	lo, step := e.gridSpan(n)
	if !(step > 0) || math.IsInf(step, 0) {
		return false
	}
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = lo + float64(i)*step
	}
	got, want := make([]float64, n), make([]float64, n)
	e.gridBinned(pos, got, lo, step)
	e.denseGridBinned(pos, want, lo, step)
	compareBits(t, "gridBinned", got, want)
	if e.bandwidth < binnedMinBandwidthSteps*step {
		return false
	}
	if err := e.GridInto(context.Background(), pos, got); err != nil {
		t.Fatal(err)
	}
	compareBits(t, "GridInto", got, want)
	return true
}

func compareBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s point %d of %d: %v (%#x), dense reference %v (%#x)",
				what, i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGridBinnedMatchesDenseBits pins the occupied-bin convolution to the
// dense one bit for bit over random samples of every shape, at grid sizes
// from 2 points up and bandwidths from far below to far above the binned
// gate, and over the Tier-3 kernels Sieve splits on the lmc fixture at the
// grid size it splits them with.
func TestGridBinnedMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	gated := 0
	for trial := 0; trial < 400; trial++ {
		shape := trial % numShapes
		n := 1 + rng.Intn(600)
		g := []int{2, 3, 17, 64, DefaultGridPoints, 2048}[rng.Intn(6)]
		xs := shapedSample(rng.Int63(), shape, n)
		h := 0.0 // Silverman
		if k := rng.Intn(3); k > 0 {
			h = SilvermanBandwidth(xs) * math.Pow(8, float64(2*k-3)) // ×⅛ or ×8
		}
		if checkOccupiedBits(t, xs, h, g) {
			gated++
		}
	}
	if gated < 100 {
		t.Fatalf("only %d of 400 trials took the binned path through GridInto", gated)
	}

	tier3 := 0
	for name, counts := range lmcFixtureKernels(t) {
		if cov(counts) < 0.4 {
			continue
		}
		tier3++
		if !checkOccupiedBits(t, counts, 0, DefaultGridPoints) {
			t.Fatalf("kernel %s: Silverman bandwidth missed the binned path", name)
		}
	}
	if tier3 == 0 {
		t.Fatal("fixture yielded no Tier-3 kernels")
	}
}

// FuzzGridBinnedBits is TestGridBinnedMatchesDenseBits over fuzzer-chosen
// seeds, shapes, sample counts, grid sizes and bandwidth scales.
func FuzzGridBinnedBits(f *testing.F) {
	f.Add(int64(1), uint8(shapeDuplicated), uint16(40), uint16(DefaultGridPoints), int8(0))
	f.Add(int64(2), uint8(shapeMultimodal), uint16(33), uint16(DefaultGridPoints), int8(0))
	f.Add(int64(3), uint8(shapeHeavyTailed), uint16(500), uint16(2048), int8(3))
	f.Add(int64(4), uint8(shapeUniform), uint16(1000), uint16(64), int8(-2))
	f.Add(int64(5), uint8(shapeMultimodal), uint16(1), uint16(2), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n, g uint16, bwExp int8) {
		n = 1 + n%2000
		g = 2 + g%4095
		xs := shapedSample(seed, int(shape), int(n))
		h := 0.0
		if bwExp != 0 {
			h = SilvermanBandwidth(xs) * math.Ldexp(1, int(bwExp%12))
		}
		checkOccupiedBits(t, xs, h, int(g))
	})
}
