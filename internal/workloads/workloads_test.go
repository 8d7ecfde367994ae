package workloads

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/stats"
)

func TestCatalogMatchesTableI(t *testing.T) {
	specs := Catalog()
	if len(specs) != 40 {
		t.Fatalf("catalog has %d workloads, Table I lists 40", len(specs))
	}
	// Spot checks against Table I.
	expect := map[string]struct {
		suite       string
		kernels     int
		invocations int
	}{
		"lbm":      {SuiteParboil, 1, 3000},
		"cfd":      {SuiteRodinia, 4, 14003},
		"cholesky": {SuiteSDK, 25, 143},
		"gru":      {SuiteCactus, 8, 43837},
		"gst":      {SuiteCactus, 15, 175},
		"nst":      {SuiteCactus, 50, 1072246},
		"lgt":      {SuiteCactus, 74, 532707},
		"bert":     {SuiteMLPerf, 11, 141964},
		"rnnt":     {SuiteMLPerf, 39, 205440},
	}
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	for name, e := range expect {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("workload %q missing from catalog", name)
		}
		if s.Suite != e.suite || s.Kernels != e.kernels || s.FullInvocations != e.invocations {
			t.Fatalf("%s: got (%s, %d, %d), want (%s, %d, %d)",
				name, s.Suite, s.Kernels, s.FullInvocations, e.suite, e.kernels, e.invocations)
		}
	}
}

func TestCatalogSpecsValidateAndSeedsUnique(t *testing.T) {
	seeds := map[int64]string{}
	names := map[string]bool{}
	for _, s := range Catalog() {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if prev, dup := seeds[s.Seed]; dup {
			t.Fatalf("seed %d shared by %s and %s", s.Seed, prev, s.Name)
		}
		seeds[s.Seed] = s.Name
		if names[s.Name] {
			t.Fatalf("duplicate workload name %s", s.Name)
		}
		names[s.Name] = true
	}
}

func TestByNameAndBySuite(t *testing.T) {
	s, err := ByName("gru")
	if err != nil || s.Name != "gru" {
		t.Fatalf("ByName(gru) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown workload")
	}
	cactus, err := BySuite(SuiteCactus)
	if err != nil {
		t.Fatal(err)
	}
	if len(cactus) != 10 {
		t.Fatalf("Cactus has %d workloads, want 10", len(cactus))
	}
	if _, err := BySuite("NoSuchSuite"); err == nil {
		t.Fatal("want error for unknown suite")
	}
	if got := len(Names()); got != 40 {
		t.Fatalf("Names = %d, want 40", got)
	}
}

func TestSpecValidateRejections(t *testing.T) {
	base := simple(SuiteParboil, "x", 2, 100, 1)
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"zero kernels", func(s *Spec) { s.Kernels = 0 }},
		{"fewer invocations than kernels", func(s *Spec) { s.FullInvocations = 1 }},
		{"tier fractions exceed 1", func(s *Spec) { s.Tier1Frac, s.Tier3Frac = 0.7, 0.7 }},
		{"negative tier fraction", func(s *Spec) { s.Tier1Frac = -0.1 }},
		{"inverted CoV range", func(s *Spec) { s.LowVarCoVLo, s.LowVarCoVHi = 0.5, 0.1 }},
		{"negative jitter", func(s *Spec) { s.LocalityJitter = -1 }},
		{"ramp frac out of range", func(s *Spec) { s.RampFrac = 1.5 }},
		{"ramp scale out of range", func(s *Spec) { s.RampFrac = 0.1; s.RampScale = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base
			c.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

func TestGenerateValidatesInputs(t *testing.T) {
	s, _ := ByName("gru")
	if _, err := Generate(s, 0); err == nil {
		t.Fatal("want error for zero scale")
	}
	if _, err := Generate(s, 1.5); err == nil {
		t.Fatal("want error for scale > 1")
	}
	s.Kernels = 0
	if _, err := Generate(s, 0.1); err == nil {
		t.Fatal("want error for invalid spec")
	}
}

func TestGenerateStructure(t *testing.T) {
	s, _ := ByName("gru")
	w, err := Generate(s, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Name != "gru" || w.Suite != SuiteCactus {
		t.Fatalf("identity = %s/%s", w.Suite, w.Name)
	}
	if w.NumKernels() != s.Kernels {
		t.Fatalf("kernels = %d, want %d", w.NumKernels(), s.Kernels)
	}
	want := int(math.Round(float64(s.FullInvocations) * 0.02))
	if got := w.NumInvocations(); got != want && got != minScaledInvocations {
		t.Fatalf("invocations = %d, want ≈ %d", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("bert")
	a, err := Generate(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Invocations) != len(b.Invocations) {
		t.Fatal("nondeterministic invocation count")
	}
	for i := range a.Invocations {
		if a.Invocations[i] != b.Invocations[i] {
			t.Fatalf("invocation %d differs between runs", i)
		}
	}
}

func TestGenerateSmallWorkloadsAreFull(t *testing.T) {
	// Workloads smaller than the scaling floor are generated in full even at
	// tiny scales.
	for _, name := range []string{"bfs_ny", "dwt2d", "gst"} {
		s, _ := ByName(name)
		w, err := Generate(s, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if w.NumInvocations() != s.FullInvocations {
			t.Fatalf("%s: %d invocations, want full %d", name, w.NumInvocations(), s.FullInvocations)
		}
	}
}

func TestTier1KernelsHaveExactlyConstantCounts(t *testing.T) {
	s, _ := ByName("gms") // gms: everything Tier-1/2 with tiny CoV
	w, err := Generate(s, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	byK := w.InvocationsByKernel()
	constantKernels := 0
	for _, idxs := range byK {
		if len(idxs) < 2 {
			continue
		}
		first := w.Invocations[idxs[0]].Chars.InstructionCount
		allEqual := true
		var counts []float64
		for _, i := range idxs {
			ic := w.Invocations[i].Chars.InstructionCount
			counts = append(counts, ic)
			if ic != first {
				allEqual = false
			}
		}
		if allEqual {
			constantKernels++
		} else if cov := stats.CoV(counts); cov > 0.15 {
			t.Fatalf("gms kernel has instruction CoV %g, spec promises < 0.1 range", cov)
		}
	}
	if constantKernels == 0 {
		t.Fatal("gms should have Tier-1 (exactly constant) kernels")
	}
}

func TestGstHasDominantInvocation(t *testing.T) {
	s, _ := ByName("gst")
	w, err := Generate(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		t.Fatal(err)
	}
	cycles := model.MeasureWorkload(w)
	total := stats.Sum(cycles)
	max := stats.Max(cycles)
	if frac := max / total; frac < 0.5 {
		t.Fatalf("gst dominant invocation holds %.0f%% of cycles, want > 50%%", frac*100)
	}
}

func TestInterleavePreservesKernelOrderAndRoughProgress(t *testing.T) {
	s, _ := ByName("lmc")
	w, err := Generate(s, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	// Per-kernel Seq must increase with global Index (guaranteed by
	// Validate) and early global positions must hold early per-kernel
	// sequence numbers: correlate global fraction vs per-kernel fraction.
	byK := w.InvocationsByKernel()
	n := float64(w.NumInvocations())
	var sumDiff float64
	var cnt int
	for _, idxs := range byK {
		if len(idxs) < 10 {
			continue
		}
		for rank, gi := range idxs {
			globalFrac := float64(gi) / n
			kernelFrac := float64(rank) / float64(len(idxs))
			sumDiff += math.Abs(globalFrac - kernelFrac)
			cnt++
		}
	}
	if cnt == 0 {
		t.Skip("no kernel with enough invocations at this scale")
	}
	if avg := sumDiff / float64(cnt); avg > 0.1 {
		t.Fatalf("interleave not progress-proportional: mean |Δfrac| = %g", avg)
	}
}

func TestGeneratedCharacteristicsConsistent(t *testing.T) {
	s, _ := ByName("rnnt")
	w, err := Generate(s, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		c := &inv.Chars
		if c.CoalescedGlobalLoads > c.ThreadGlobalLoads {
			t.Fatal("coalesced loads cannot exceed thread loads")
		}
		if c.CoalescedGlobalStores > c.ThreadGlobalStores {
			t.Fatal("coalesced stores cannot exceed thread stores")
		}
		if c.ThreadBlocks != float64(inv.Grid.Count()) {
			t.Fatalf("ThreadBlocks %g != grid %d", c.ThreadBlocks, inv.Grid.Count())
		}
		h := &inv.Hidden
		if h.CacheLocality < 0 || h.CacheLocality > 1 || h.RowLocality < 0 || h.RowLocality > 1 {
			t.Fatal("hidden localities out of range")
		}
		if h.BankConflictFactor < 1 {
			t.Fatal("bank conflict factor below 1")
		}
		if h.L2WorkingSet < 0 {
			t.Fatal("negative working set")
		}
	}
}

func TestMLPerfKernelsUseTensorPipes(t *testing.T) {
	s, _ := ByName("resnet50")
	w, err := Generate(s, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	hasTensor := false
	for i := range w.Invocations {
		if w.Invocations[i].Hidden.TensorFraction > 0 {
			hasTensor = true
			break
		}
	}
	if !hasTensor {
		t.Fatal("MLPerf workload has no tensor-pipe kernels")
	}
	// Cactus workloads, by contrast, should not.
	s2, _ := ByName("gms")
	w2, err := Generate(s2, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w2.Invocations {
		if w2.Invocations[i].Hidden.TensorFraction > 0 {
			t.Fatal("Cactus workload unexpectedly uses tensor pipes")
		}
	}
}

func TestL2StraddleWorkingSets(t *testing.T) {
	s, _ := ByName("lmc")
	w, err := Generate(s, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ampL2 := gpu.Ampere().L2Bytes
	turL2 := gpu.Turing().L2Bytes
	straddling := 0
	for i := range w.Invocations {
		ws := w.Invocations[i].Hidden.L2WorkingSet
		if ws > ampL2 && ws < turL2 {
			straddling++
		}
	}
	if straddling == 0 {
		t.Fatal("lmc should have invocations with working sets between the two L2 capacities")
	}
}

func TestZipfCountsInvariants(t *testing.T) {
	rng := newTestRng(7)
	for _, tc := range []struct{ n, total int }{{1, 10}, {5, 5}, {10, 1000}, {74, 5000}} {
		counts := zipfCounts(tc.n, tc.total, 0.8, rng)
		sum := 0
		for _, c := range counts {
			if c < 1 {
				t.Fatalf("kernel with %d invocations", c)
			}
			sum += c
		}
		if sum != tc.total {
			t.Fatalf("zipfCounts(%d, %d) sums to %d", tc.n, tc.total, sum)
		}
	}
}

func TestLogUniformRange(t *testing.T) {
	rng := newTestRng(9)
	for i := 0; i < 1000; i++ {
		v := logUniform(rng, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("logUniform out of range: %g", v)
		}
	}
}

func TestColdStartAffectsEarlyInvocations(t *testing.T) {
	s, _ := ByName("lgt") // has RampFrac > 0 and ColdScale < 1
	w, err := Generate(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// For non-constant kernels with enough invocations, the first invocation
	// must run with colder hidden cache locality than the kernel's median,
	// and must launch with a non-dominant CTA configuration.
	byK := w.InvocationsByKernel()
	colder, altCTA, checked := 0, 0, 0
	for _, idxs := range byK {
		if len(idxs) < 50 {
			continue
		}
		var locs []float64
		ctaFreq := map[int]int{}
		for _, i := range idxs {
			locs = append(locs, w.Invocations[i].Hidden.CacheLocality)
			ctaFreq[w.Invocations[i].CTASize()]++
		}
		first := &w.Invocations[idxs[0]]
		constant := true
		ref := w.Invocations[idxs[0]].Chars.InstructionCount
		for _, i := range idxs[1:] {
			if w.Invocations[i].Chars.InstructionCount != ref {
				constant = false
				break
			}
		}
		if constant {
			continue // constant kernels have no warm-up by design
		}
		checked++
		if first.Hidden.CacheLocality < stats.Median(locs) {
			colder++
		}
		dominant, best := 0, -1
		for cta, n := range ctaFreq {
			if n > best {
				dominant, best = cta, n
			}
		}
		if first.CTASize() != dominant {
			altCTA++
		}
	}
	if checked == 0 {
		t.Skip("no warm-up kernel at this scale")
	}
	if float64(colder)/float64(checked) < 0.8 {
		t.Fatalf("cold start not visible: only %d/%d kernels start cold", colder, checked)
	}
	if float64(altCTA)/float64(checked) < 0.8 {
		t.Fatalf("warm-up CTA flip not visible: only %d/%d kernels start on alternate CTA", altCTA, checked)
	}
}

// newTestRng mirrors the generator's seeding for helper-level tests.
func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestFullCatalogGeneratesValidWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all 40 workloads")
	}
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Catalog() {
		w, err := Generate(spec, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if w.NumKernels() != spec.Kernels {
			t.Fatalf("%s: %d kernels, want %d", spec.Name, w.NumKernels(), spec.Kernels)
		}
		// Every invocation must execute in positive finite time on the
		// golden model.
		for i := range w.Invocations {
			c := hw.Cycles(&w.Invocations[i])
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("%s: invocation %d cycles = %g", spec.Name, i, c)
			}
		}
	}
}
