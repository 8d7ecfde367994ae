package workloads

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/gpusampling/sieve/internal/cudamodel"
)

// minScaledInvocations is the floor on generated invocation counts when a
// scale factor would otherwise shrink a workload into degeneracy: scaled
// workloads keep at least this many invocations (or their full count if
// smaller). Traditional-suite workloads with tens of invocations are thus
// always generated in full.
const minScaledInvocations = 300

// kernelClass is a kernel's invocation-behaviour class.
type kernelClass int

const (
	classConstant  kernelClass = iota // identical instruction count every invocation (Tier-1)
	classLowVar                       // small CoV around a base count (Tier-2)
	classMulti                        // multi-modal counts (Tier-3, KDE-splittable)
	classHeavyTail                    // log-spread counts (gst's dominant kernel)
)

// ctaSizes are the CTA (thread-block) sizes kernels draw from.
var ctaSizes = []int32{64, 128, 192, 256, 512, 1024}

// genKernel carries all per-kernel generation parameters.
type genKernel struct {
	name        string
	class       kernelClass
	count       int // invocations of this kernel
	baseInstr   float64
	covTarget   float64   // classLowVar: instruction-count CoV
	modeScales  []float64 // classMulti: mode means relative to baseInstr
	modeWeights []float64 // classMulti: cumulative selection weights
	modeJitter  float64   // classMulti: within-mode relative jitter

	workPerThread float64 // instructions per thread
	dominantCTA   int32
	altCTA        int32

	loadFrac   float64 // thread global loads per instruction
	storeFrac  float64
	sharedFrac float64
	localFrac  float64
	atomicFrac float64
	coalesce   float64 // thread accesses per coalesced transaction
	divergence float64 // base divergence efficiency

	hot          bool    // compute-bound, cache-resident kernel
	locality     float64 // base hidden cache locality
	rowLocality  float64
	fp32         float64
	tensor       float64
	bankConflict float64
	wsPerByte    float64 // unique fraction of touched bytes resident in L2
	wsBytes      float64 // per-kernel working set derived from wsPerByte
	straddleWS   float64 // if > 0, fixed working set (L2Straddle workloads)
}

// Generate synthesizes the workload described by spec at the given scale
// factor (0 < scale ≤ 1). Scale multiplies the invocation count — the paper's
// Table I counts are themselves caps on much longer runs, so scaling
// preserves distributional shape while keeping experiments laptop-sized.
// Generation is fully deterministic in (spec, scale).
func Generate(spec Spec, scale float64) (*cudamodel.Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("workloads: scale %g outside (0, 1]", scale)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	total := int(math.Round(float64(spec.FullInvocations) * scale))
	if floor := min(spec.FullInvocations, minScaledInvocations); total < floor {
		total = floor
	}
	if total < spec.Kernels {
		total = spec.Kernels
	}

	kernels := planKernels(&spec, total, rng)
	invs := emitInvocations(&spec, kernels, rng)
	order := interleave(kernels, rng)

	w := &cudamodel.Workload{Name: spec.Name, Suite: spec.Suite}
	w.Invocations = make([]cudamodel.Invocation, 0, len(order))
	for globalIdx, slot := range order {
		inv := invs[slot.kernel][slot.seq]
		inv.Index = globalIdx
		inv.Seq = slot.seq
		w.Invocations = append(w.Invocations, inv)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: generated workload invalid: %w", err)
	}
	return w, nil
}

// planKernels decides per-kernel invocation counts, classes and parameters.
func planKernels(spec *Spec, total int, rng *rand.Rand) []genKernel {
	counts := zipfCounts(spec.Kernels, total, spec.Skew, rng)

	kernels := make([]genKernel, spec.Kernels)
	for i := range kernels {
		kernels[i] = genKernel{
			name:  fmt.Sprintf("%s_kernel_%02d", spec.Name, i),
			count: counts[i],
		}
	}

	assignClasses(spec, kernels, total, rng)

	instrLo, instrHi := spec.InstrLo, spec.InstrHi
	if instrLo == 0 {
		instrLo = 1e7
	}
	if instrHi == 0 {
		instrHi = 5e8
	}
	// Uniformity narrows the across-kernel spread of the visible ratio
	// features toward a common center.
	u := spec.Uniformity
	span := func(diverseLo, diverseHi, tightLo, tightHi float64) float64 {
		lo := diverseLo + (tightLo-diverseLo)*u
		hi := diverseHi + (tightHi-diverseHi)*u
		return lo + rng.Float64()*(hi-lo)
	}
	for i := range kernels {
		k := &kernels[i]
		k.baseInstr = logUniform(rng, instrLo, instrHi)
		k.workPerThread = logUniform(rng, 100+400*u, 3000-2200*u)
		k.dominantCTA = ctaSizes[rng.Intn(len(ctaSizes))]
		k.altCTA = ctaSizes[rng.Intn(len(ctaSizes))]
		if k.altCTA == k.dominantCTA {
			// The alternate configuration must be distinguishable so that
			// dominant-CTA selection can skip warm-up invocations.
			k.altCTA = ctaSizes[(rng.Intn(len(ctaSizes)-1)+1+indexOfCTA(k.dominantCTA))%len(ctaSizes)]
		}

		k.loadFrac = span(0.04, 0.34, 0.19, 0.20)
		k.storeFrac = k.loadFrac * span(0.15, 0.55, 0.34, 0.36)
		k.sharedFrac = span(0, 0.25, 0.10, 0.11)
		if rng.Float64() < 0.15*(1-u) {
			k.localFrac = rng.Float64() * 0.02
		}
		if rng.Float64() < 0.1*(1-u) {
			k.atomicFrac = rng.Float64() * 0.005
		}
		k.coalesce = span(2, 16, 7.9, 8.1)
		k.divergence = span(0.6, 1.0, 0.89, 0.91)

		// Hidden cache locality spans nearly the full range: kernels at the
		// top are effectively compute-bound, kernels at the bottom stream
		// from DRAM. Per-instruction cycle cost thus varies ~30× across
		// kernels through a channel the twelve characteristics cannot see.
		// HotCacheFrac of the kernels are pinned compute-bound so their
		// cross-architecture behaviour follows the datapaths.
		if rng.Float64() < spec.HotCacheFrac {
			// Truly compute-bound: the residual DRAM traffic is far below the
			// issue bound on both architectures, and the instruction count is
			// boosted so these kernels still carry a meaningful share of the
			// workload's cycles.
			k.hot = true
			k.locality = 0.985 + rng.Float64()*0.01
			k.baseInstr *= 8 * logUniform(rng, 0.7, 1.4)
		} else {
			// Capped below the compute/memory crossover on both
			// architectures, so a kernel's boundedness is stable across them.
			k.locality = 0.45 + rng.Float64()*0.48
		}
		k.rowLocality = 0.5 + rng.Float64()*0.5
		k.fp32 = spec.FP32Lo + rng.Float64()*(spec.FP32Hi-spec.FP32Lo)
		if spec.TensorFrac > 0 {
			// Roughly half the kernels of a tensor-heavy workload use the
			// tensor pipes (GEMM/conv); the rest are element-wise glue.
			if rng.Float64() < 0.5 {
				k.tensor = spec.TensorFrac * (0.7 + rng.Float64()*0.6)
			}
		}
		k.bankConflict = 1
		if k.sharedFrac > 0.1 && rng.Float64() < 0.3 {
			k.bankConflict = 1 + rng.Float64()*4
		}
		k.wsPerByte = 0.02 + rng.Float64()*0.2
		if k.hot {
			// Cache-resident by construction: a working set that never spills
			// the L2, whatever the instruction count.
			k.wsPerByte = 2e-4 * (0.5 + rng.Float64())
		}
		// The working set is a per-kernel property (its data structures),
		// not a per-invocation one: invocations reuse the same buffers.
		baseTransactions := k.baseInstr * k.loadFrac * 1.3 / k.coalesce
		k.wsBytes = clampL2Band(baseTransactions * 32 * k.wsPerByte)

		switch k.class {
		case classLowVar:
			// Squared-uniform draw biases kernels toward low variability:
			// most real kernels vary only slightly (Fig. 2's large Tier-2
			// share even at θ = 0.1).
			u := rng.Float64()
			k.covTarget = spec.LowVarCoVLo + u*u*(spec.LowVarCoVHi-spec.LowVarCoVLo)
		case classMulti:
			nModes := 2 + rng.Intn(2)
			spread := 1.8 + rng.Float64()*1.4
			k.modeScales = make([]float64, nModes)
			k.modeWeights = make([]float64, nModes)
			cum := 0.0
			for m := 0; m < nModes; m++ {
				k.modeScales[m] = math.Pow(spread, float64(m))
				cum += 0.3 + rng.Float64()
				k.modeWeights[m] = cum
			}
			for m := range k.modeWeights {
				k.modeWeights[m] /= cum
			}
			k.modeJitter = 0.02 + rng.Float64()*0.05
		}
	}

	if spec.GiantKernels > 0 {
		markGiants(spec, kernels, rng)
	}

	if spec.L2Straddle {
		// Hot kernels (by invocation count) carry working sets between the
		// Ampere and Turing L2 capacities.
		idx := make([]int, len(kernels))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return kernels[idx[a]].count > kernels[idx[b]].count })
		hot := len(kernels) / 3
		if hot == 0 {
			hot = 1
		}
		for _, i := range idx[:hot] {
			kernels[i].straddleWS = 5.05*(1<<20) + rng.Float64()*0.4*(1<<20)
			kernels[i].locality = 0.85 + rng.Float64()*0.1
		}
	}

	if spec.DominantInvocation {
		// gst: the busiest kernel becomes heavy-tailed; emitInvocations makes
		// its largest invocation dominate execution time.
		maxI := 0
		for i := range kernels {
			if kernels[i].count > kernels[maxI].count {
				maxI = i
			}
		}
		kernels[maxI].class = classHeavyTail
		// gst's dominant kernel is compute-heavy: the paper's Fig. 9 shows
		// gst markedly faster on Ampere.
		kernels[maxI].hot = true
		kernels[maxI].locality = 0.99
		kernels[maxI].fp32 = spec.FP32Hi
		kernels[maxI].wsPerByte = 5e-8
		kernels[maxI].sharedFrac = 0.02
		kernels[maxI].bankConflict = 1
		d := &kernels[maxI]
		d.wsBytes = clampL2Band(d.baseInstr * d.loadFrac * 1.3 / d.coalesce * 32 * d.wsPerByte)
	}
	return kernels
}

// markGiants boosts the instruction counts of the spec's giant kernels.
// Giants are chosen among the busier kernels (so their strata hold many
// invocations and sampling them stays cheap) and keep a non-constant class
// so their own counts spread across the magnitude axis.
func markGiants(spec *Spec, kernels []genKernel, rng *rand.Rand) {
	idx := make([]int, len(kernels))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return kernels[idx[a]].count > kernels[idx[b]].count })
	// Skip the single busiest kernel: giants with mid-rank counts keep the
	// invocation-count-to-cycle-share mismatch that confuses count
	// weighting.
	start := 1
	if len(idx) <= spec.GiantKernels {
		start = 0
	}
	marked := 0
	for _, i := range idx[start:] {
		if marked == spec.GiantKernels {
			break
		}
		k := &kernels[i]
		k.baseInstr *= spec.GiantBoost * logUniform(rng, 0.5, 2)
		if k.class == classConstant {
			k.class = classLowVar
			u := rng.Float64()
			k.covTarget = spec.LowVarCoVLo + u*u*(spec.LowVarCoVHi-spec.LowVarCoVLo)
		}
		marked++
	}
}

// assignClasses distributes kernel classes to approximate the spec's
// invocation-fraction targets, assigning the busiest kernels first.
func assignClasses(spec *Spec, kernels []genKernel, total int, rng *rand.Rand) {
	idx := make([]int, len(kernels))
	for i := range idx {
		idx[i] = i
	}
	// Shuffle, then stable-sort by count so ties break randomly but
	// deterministically.
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	sort.SliceStable(idx, func(a, b int) bool { return kernels[idx[a]].count > kernels[idx[b]].count })

	t1Budget := int(math.Round(spec.Tier1Frac * float64(total)))
	t3Budget := int(math.Round(spec.Tier3Frac * float64(total)))
	for _, i := range idx {
		k := &kernels[i]
		switch {
		case t3Budget > 0 && k.count <= t3Budget+t3Budget/2:
			k.class = classMulti
			t3Budget -= k.count
		case t1Budget > 0 && k.count <= t1Budget+t1Budget/2:
			k.class = classConstant
			t1Budget -= k.count
		default:
			k.class = classLowVar
		}
	}
	// Guarantee at least one Tier-3 kernel when requested: multi-modality
	// needs at least a handful of invocations to show.
	if spec.Tier3Frac > 0 {
		hasMulti := false
		for i := range kernels {
			if kernels[i].class == classMulti && kernels[i].count >= 4 {
				hasMulti = true
				break
			}
		}
		if !hasMulti {
			best := 0
			for i := range kernels {
				if kernels[i].count > kernels[best].count {
					best = i
				}
			}
			kernels[best].class = classMulti
		}
	}
}

// emitInvocations generates each kernel's invocations in per-kernel sequence
// order (Index is assigned later by interleave).
func emitInvocations(spec *Spec, kernels []genKernel, rng *rand.Rand) [][]cudamodel.Invocation {
	out := make([][]cudamodel.Invocation, len(kernels))
	for ki := range kernels {
		k := &kernels[ki]
		invs := make([]cudamodel.Invocation, k.count)
		rampCount := 0
		if k.class != classConstant && spec.RampFrac > 0 {
			rampCount = int(math.Ceil(spec.RampFrac * float64(k.count)))
		}
		for j := 0; j < k.count; j++ {
			instr := instructionCount(k, j, rng)
			warm := 1.0
			if j < rampCount {
				// Warm-up ramp: earliest invocations run reduced problem
				// sizes, climbing linearly back to full scale, with caches
				// and row buffers warming alongside.
				warm = float64(j+1) / float64(rampCount+1)
				instr *= spec.RampScale + (1-spec.RampScale)*warm
			}
			invs[j] = buildInvocation(spec, k, instr, warm, rng)
		}
		if k.class == classHeavyTail {
			inflateDominant(invs)
		}
		out[ki] = invs
	}
	return out
}

// instructionCount draws the invocation's dynamic instruction count per the
// kernel's class.
func instructionCount(k *genKernel, seq int, rng *rand.Rand) float64 {
	switch k.class {
	case classConstant:
		return k.baseInstr
	case classLowVar:
		// Clipped Gaussian around the base with the target CoV.
		z := rng.NormFloat64()
		if z > 2.5 {
			z = 2.5
		} else if z < -2.5 {
			z = -2.5
		}
		v := k.baseInstr * (1 + k.covTarget*z)
		if v < k.baseInstr*0.05 {
			v = k.baseInstr * 0.05
		}
		return v
	case classMulti:
		u := rng.Float64()
		mode := len(k.modeScales) - 1
		for m, w := range k.modeWeights {
			if u <= w {
				mode = m
				break
			}
		}
		jitter := 1 + k.modeJitter*rng.NormFloat64()
		if jitter < 0.5 {
			jitter = 0.5
		}
		return k.baseInstr * k.modeScales[mode] * jitter
	case classHeavyTail:
		// Log-uniform over three decades; each invocation lands in its own
		// stratum under any reasonable θ.
		return k.baseInstr * math.Pow(10, rng.Float64()*3)
	}
	return k.baseInstr
}

// inflateDominant scales the largest invocation of a heavy-tailed kernel so
// that it accounts for roughly 85% of the kernel's (and thus most of the
// workload's) execution time, per the paper's description of gst.
func inflateDominant(invs []cudamodel.Invocation) {
	if len(invs) == 0 {
		return
	}
	maxJ, sum := 0, 0.0
	for j := range invs {
		ic := invs[j].Chars.InstructionCount
		sum += ic
		if ic > invs[maxJ].Chars.InstructionCount {
			maxJ = j
		}
	}
	rest := sum - invs[maxJ].Chars.InstructionCount
	target := rest * 5.6667 // d/(d+rest) ≈ 0.85
	if invs[maxJ].Chars.InstructionCount < target {
		scaleChars(&invs[maxJ], target/invs[maxJ].Chars.InstructionCount)
	}
}

// scaleChars multiplies all work-proportional characteristics of an
// invocation by f, keeping ratios (and thus per-instruction behaviour)
// intact.
func scaleChars(inv *cudamodel.Invocation, f float64) {
	c := &inv.Chars
	c.InstructionCount *= f
	c.CoalescedGlobalLoads *= f
	c.CoalescedGlobalStores *= f
	c.CoalescedLocalLoads *= f
	c.ThreadGlobalLoads *= f
	c.ThreadGlobalStores *= f
	c.ThreadLocalLoads *= f
	c.ThreadSharedLoads *= f
	c.ThreadSharedStores *= f
	c.ThreadGlobalAtomics *= f
	blocks := math.Ceil(c.ThreadBlocks * f)
	if blocks > math.MaxInt32 {
		blocks = math.MaxInt32
	}
	c.ThreadBlocks = blocks
	inv.Grid = cudamodel.Dim3{X: int32(blocks), Y: 1, Z: 1}
	// The working set is left unscaled: the dominant invocation is a tiled
	// computation whose cache-resident reuse footprint does not grow with
	// the amount of work.
}

// buildInvocation derives the full characteristic vector and hidden state
// for one invocation with the given instruction count. warm ∈ (0, 1] is the
// warm-up progress: 1 for steady-state invocations, smaller during the ramp
// window.
func buildInvocation(spec *Spec, k *genKernel, instr, warm float64, rng *rand.Rand) cudamodel.Invocation {
	// Warm-up invocations run reduced problem sizes and therefore launch
	// with the kernel's alternate CTA configuration; steady-state
	// invocations overwhelmingly use the dominant one.
	cta := k.dominantCTA
	if warm < 1 {
		cta = k.altCTA
	} else if rng.Float64() > 0.9 {
		cta = k.altCTA
	}
	workJitter := 1 + 0.035*spec.Uniformity*rng.NormFloat64()
	if workJitter < 0.3 {
		workJitter = 0.3
	}
	threads := instr / (k.workPerThread * workJitter)
	blocks := math.Ceil(threads / float64(cta))
	if blocks < 1 {
		blocks = 1
	}
	if blocks > math.MaxInt32 {
		blocks = math.MaxInt32
	}

	// Per-invocation input variation perturbs the visible ratios. In the
	// uniform (challenging) regime this within-kernel spread exceeds the
	// narrowed across-kernel spread, so the standardized feature space
	// cannot tell kernels apart — while per-instruction execution cost
	// still differs kernel-to-kernel through hidden locality.
	ratioJitter := 0.035 * spec.Uniformity
	perturb := func() float64 {
		m := 1 + ratioJitter*rng.NormFloat64()
		if m < 0.3 {
			m = 0.3
		}
		return m
	}
	threadLoads := instr * k.loadFrac * perturb()
	threadStores := instr * k.storeFrac * perturb()
	shared := instr * k.sharedFrac * perturb()
	coalesce := k.coalesce * perturb()
	if coalesce < 1 {
		coalesce = 1
	}
	div := k.divergence * (1 + (0.01+2*ratioJitter/10)*rng.NormFloat64())
	if div > 1 {
		div = 1
	} else if div < 0.05 {
		div = 0.05
	}

	chars := cudamodel.Characteristics{
		CoalescedGlobalLoads:  threadLoads / coalesce,
		CoalescedGlobalStores: threadStores / coalesce,
		CoalescedLocalLoads:   instr * k.localFrac / coalesce,
		ThreadGlobalLoads:     threadLoads,
		ThreadGlobalStores:    threadStores,
		ThreadLocalLoads:      instr * k.localFrac,
		ThreadSharedLoads:     shared,
		ThreadSharedStores:    shared * 0.4,
		ThreadGlobalAtomics:   instr * k.atomicFrac,
		InstructionCount:      instr,
		DivergenceEfficiency:  div,
		ThreadBlocks:          blocks,
	}

	// Hidden cold-start: cache and row locality recover from ColdScale to
	// full across the warm-up window. Profilers never see this.
	coldMul := 1.0
	if warm < 1 && spec.ColdScale > 0 && spec.ColdScale < 1 {
		coldMul = spec.ColdScale + (1-spec.ColdScale)*warm
	}
	// Per-invocation jitter perturbs the miss rate multiplicatively, so
	// high-locality kernels see proportional (not explosive) cycle noise.
	miss := (1 - k.locality) * (1 + 2*spec.LocalityJitter*rng.NormFloat64())
	// Larger invocations of a kernel stream proportionally more data per
	// instruction (the reuse footprint is fixed per kernel): per-instruction
	// cost grows mildly with problem size. This is what makes coarse strata
	// (large θ) pay an accuracy price — merged instruction-count modes no
	// longer share a CPI.
	if k.baseInstr > 0 && !k.hot {
		// Hot kernels are exempt: their reuse footprint is fixed.
		miss *= math.Pow(instr/k.baseInstr, 0.3)
	}
	if miss < 0.005 {
		miss = 0.005
	}
	if miss > 0.98 {
		miss = 0.98
	}
	locality := (1 - miss) * coldMul
	if k.hot && locality < 0.85 {
		// Cache-resident kernels re-warm their small footprint within the
		// first tile pass: the cold penalty is bounded.
		locality = 0.85
	}
	rowMul := (1 + coldMul) / 2 // row buffers warm faster than caches
	ws := k.straddleWS
	if ws == 0 {
		ws = k.wsBytes
	}
	hidden := cudamodel.Hidden{
		CacheLocality:      clamp01(locality),
		RowLocality:        clamp01((k.rowLocality + 0.02*rng.NormFloat64()) * rowMul),
		FP32Fraction:       k.fp32,
		TensorFraction:     k.tensor,
		BankConflictFactor: k.bankConflict,
		L2WorkingSet:       ws,
	}

	return cudamodel.Invocation{
		Kernel: k.name,
		Grid:   cudamodel.Dim3{X: int32(blocks), Y: 1, Z: 1},
		Block:  cudamodel.Dim3{X: cta, Y: 1, Z: 1},
		Chars:  chars,
		Hidden: hidden,
	}
}

// slot identifies one invocation in the per-kernel emission order.
type slot struct {
	kernel int
	seq    int
}

// interleave merges the per-kernel invocation streams into one chronological
// order that models iterative program structure: invocation j of a kernel
// with n invocations lands near fractional position j/n of the run, with
// random jitter. Per-kernel order is preserved.
func interleave(kernels []genKernel, rng *rand.Rand) []slot {
	type keyed struct {
		slot
		key float64
	}
	total := 0
	for ki := range kernels {
		total += kernels[ki].count
	}
	all := make([]keyed, 0, total)
	for ki := range kernels {
		n := float64(kernels[ki].count)
		for j := 0; j < kernels[ki].count; j++ {
			all = append(all, keyed{
				slot: slot{kernel: ki, seq: j},
				key:  (float64(j) + rng.Float64()) / n,
			})
		}
	}
	slices.SortStableFunc(all, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	out := make([]slot, len(all))
	for i, k := range all {
		out[i] = k.slot
	}
	return out
}

// zipfCounts splits total invocations across n kernels with a Zipf-like
// skew (weight ∝ 1/rank^skew), guaranteeing every kernel at least one
// invocation. The rank order is shuffled so kernel index does not encode
// popularity.
func zipfCounts(n, total int, skew float64, rng *rand.Rand) []int {
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), skew)
		sum += weights[i]
	}
	rng.Shuffle(n, func(a, b int) { weights[a], weights[b] = weights[b], weights[a] })

	counts := make([]int, n)
	assigned := 0
	for i := range counts {
		counts[i] = int(float64(total) * weights[i] / sum)
		if counts[i] < 1 {
			counts[i] = 1
		}
		assigned += counts[i]
	}
	// Distribute rounding remainder (or claw back overshoot) on the largest
	// kernels.
	for assigned != total {
		step := 1
		if assigned > total {
			step = -1
		}
		best := 0
		for i := range counts {
			if counts[i] > counts[best] {
				best = i
			}
		}
		if step < 0 && counts[best] <= 1 {
			break
		}
		counts[best] += step
		assigned += step
	}
	return counts
}

// clampL2Band keeps accidental working sets away from the cache-capacity
// cliffs: out of the band between the two L2 capacities (only L2Straddle
// workloads are meant to behave differently across architectures there) and
// away from the immediate neighborhood of either cliff.
func clampL2Band(ws float64) float64 {
	const bandLo, bandHi = 4.8e6, 6.2e6
	if ws > bandLo && ws < bandHi {
		if ws-bandLo < bandHi-ws {
			return bandLo
		}
		return bandHi
	}
	return ws
}

// indexOfCTA returns the position of size within ctaSizes (0 if absent).
func indexOfCTA(size int32) int {
	for i, s := range ctaSizes {
		if s == size {
			return i
		}
	}
	return 0
}

// logUniform draws from a log-uniform distribution on [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
