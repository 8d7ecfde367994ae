// Package workloads synthesizes the benchmark suites of the paper's
// evaluation (Table I): Parboil, Rodinia, CUDA SDK, Cactus and MLPerf
// inference. The real binaries and their inputs are not available here, so
// each workload is generated from a deterministic per-workload specification
// that reproduces the properties the sampling experiments depend on:
//
//   - the suite structure: kernel counts and invocation counts of Table I;
//   - the per-kernel invocation-behaviour classes that produce the paper's
//     tier mixes (Fig. 2): constant, low-variability, multi-modal and
//     heavy-tailed instruction counts;
//   - execution-order structure (programs iterate: early global positions
//     correspond to early per-kernel invocations, with ramp-up effects);
//   - hidden microarchitectural diversity across kernels and invocations
//     (cache locality, working sets, unit mix) that drives within-cluster
//     cycle-count dispersion for PKS (Fig. 4) while leaving Sieve's
//     per-kernel strata homogeneous;
//   - workload personalities called out by the paper: gst's dominant
//     invocation, lmc/lmr's Ampere-unfriendly working sets, the MLPerf
//     suite's tensor-heavy instruction diversity.
package workloads

import (
	"fmt"
	"sort"
)

// Spec is the deterministic generation recipe for one workload.
type Spec struct {
	// Name and Suite identify the workload per Table I.
	Name  string
	Suite string
	// Kernels is the number of distinct kernels.
	Kernels int
	// FullInvocations is the profiled invocation count at scale 1.0
	// (Table I).
	FullInvocations int
	// Seed drives every random choice for this workload.
	Seed int64

	// Tier1Frac is the target fraction of invocations from constant-count
	// kernels (Tier-1); Tier3Frac from high-variability kernels (Tier-3 at
	// the paper's thresholds). The remainder is low-variability (Tier-2).
	Tier1Frac float64
	Tier3Frac float64
	// LowVarCoVLo/Hi bound the instruction-count CoV of low-variability
	// kernels; where the range sits relative to θ decides how invocations
	// migrate between Tier-2 and Tier-3 as θ changes (Fig. 2).
	LowVarCoVLo, LowVarCoVHi float64
	// Skew is the Zipf-like exponent distributing invocations across
	// kernels; 0 is uniform, larger values concentrate invocations in few
	// kernels.
	Skew float64
	// Uniformity in [0, 1] narrows the across-kernel spread of the
	// *visible* per-instruction ratios (loads, stores, shared traffic,
	// coalescing, divergence, work per thread). At 1 every kernel looks
	// nearly identical per instruction to the twelve profiled
	// characteristics — the feature space collapses to instruction
	// magnitude — while execution time still differs through the hidden
	// state. This is the paper's core diagnosis: microarchitecture-
	// independent characteristics do not capture execution time, so PKS's
	// clusters mix kernels whose cycles differ widely (Fig. 4).
	Uniformity float64
	// InstrLo/InstrHi bound the per-kernel base instruction count
	// (log-uniform). Zero selects the generator defaults. A narrow range
	// makes many kernels overlap in the PKS feature space — more than 20
	// clusters can resolve — which is what makes the Cactus and MLPerf
	// workloads "challenging" in the paper's sense; a wide range keeps the
	// traditional suites separable and easy.
	InstrLo, InstrHi float64

	// LocalityJitter is the per-invocation standard deviation of hidden
	// cache locality around the kernel's base — the dominant source of
	// cycle-count dispersion inside otherwise-identical strata.
	LocalityJitter float64
	// TensorFrac is the typical tensor-pipe work fraction for this
	// workload's kernels (MLPerf inference is tensor-heavy).
	TensorFrac float64
	// FP32Lo/Hi bound the per-kernel FP32-eligible fraction.
	FP32Lo, FP32Hi float64
	// HotCacheFrac is the fraction of kernels whose working set lives in
	// cache (locality ≈ 0.95): these kernels are compute-bound, so their
	// cross-architecture behaviour follows the FP32/tensor datapaths
	// (Ampere-friendly) rather than DRAM bandwidth — the source of the
	// per-workload speedup diversity in Fig. 9.
	HotCacheFrac float64
	// L2Straddle marks workloads (lmc, lmr) whose hot kernels have working
	// sets between the Ampere (5 MB) and Turing (5.5 MB) L2 capacities,
	// making them relatively slower on Ampere (Fig. 9).
	L2Straddle bool
	// DominantInvocation marks gst: one invocation accounts for ~85% of
	// execution time and its kernel's counts are spread so widely that
	// every invocation becomes its own stratum (Fig. 6's outlier).
	DominantInvocation bool
	// RampFrac and RampScale model program warm-up: the earliest RampFrac
	// of each non-constant kernel's invocations have instruction counts
	// scaled from RampScale up to 1. This is what makes PKS's
	// first-chronological representative systematically unrepresentative
	// (Fig. 5).
	RampFrac  float64
	RampScale float64
	// ColdScale models the hidden cache warm-up that accompanies the ramp:
	// at the very first invocation of a non-constant kernel, cache and
	// DRAM-row locality are scaled by ColdScale, recovering linearly to 1
	// across the ramp window. This is *invisible* to the twelve profiled
	// characteristics — exactly the microarchitecture-dependent behaviour
	// PKS's clustering cannot separate — so PKS's first-chronological
	// representatives run systematically cold at every k, while Sieve's
	// dominant-CTA selection lands on post-warm-up invocations. 0 (or 1)
	// disables the effect.
	ColdScale float64
	// GiantKernels marks this many kernels as "giant" (GEMM-like): their
	// instruction counts are boosted by roughly GiantBoost. Giants stretch
	// the standardized PKS feature space so that the remaining invocations
	// compress into a blob that 20 clusters cannot resolve — the
	// curse-of-dimensionality failure Section VI describes, and the source
	// of PKS's large within-cluster cycle dispersion (Fig. 4).
	GiantKernels int
	GiantBoost   float64
}

// Validate checks a spec's internal consistency.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "" || s.Suite == "":
		return fmt.Errorf("workloads: spec missing name or suite")
	case s.Kernels <= 0:
		return fmt.Errorf("workloads: %s: non-positive kernel count", s.Name)
	case s.FullInvocations < s.Kernels:
		return fmt.Errorf("workloads: %s: fewer invocations (%d) than kernels (%d)",
			s.Name, s.FullInvocations, s.Kernels)
	case s.Tier1Frac < 0 || s.Tier3Frac < 0 || s.Tier1Frac+s.Tier3Frac > 1:
		return fmt.Errorf("workloads: %s: invalid tier fractions %g/%g", s.Name, s.Tier1Frac, s.Tier3Frac)
	case s.LowVarCoVLo < 0 || s.LowVarCoVHi < s.LowVarCoVLo:
		return fmt.Errorf("workloads: %s: invalid low-var CoV range [%g, %g]", s.Name, s.LowVarCoVLo, s.LowVarCoVHi)
	case s.LocalityJitter < 0:
		return fmt.Errorf("workloads: %s: negative locality jitter", s.Name)
	case s.RampFrac < 0 || s.RampFrac > 1:
		return fmt.Errorf("workloads: %s: ramp fraction %g outside [0, 1]", s.Name, s.RampFrac)
	case s.RampFrac > 0 && (s.RampScale <= 0 || s.RampScale > 1):
		return fmt.Errorf("workloads: %s: ramp scale %g outside (0, 1]", s.Name, s.RampScale)
	case s.ColdScale < 0 || s.ColdScale > 1:
		return fmt.Errorf("workloads: %s: cold scale %g outside [0, 1]", s.Name, s.ColdScale)
	case s.InstrLo < 0 || s.InstrHi < s.InstrLo:
		return fmt.Errorf("workloads: %s: invalid instruction range [%g, %g]", s.Name, s.InstrLo, s.InstrHi)
	case s.Uniformity < 0 || s.Uniformity > 1:
		return fmt.Errorf("workloads: %s: uniformity %g outside [0, 1]", s.Name, s.Uniformity)
	case s.HotCacheFrac < 0 || s.HotCacheFrac > 1:
		return fmt.Errorf("workloads: %s: hot-cache fraction %g outside [0, 1]", s.Name, s.HotCacheFrac)
	case s.GiantKernels < 0 || s.GiantKernels >= s.Kernels:
		return fmt.Errorf("workloads: %s: giant kernel count %d outside [0, %d)", s.Name, s.GiantKernels, s.Kernels)
	case s.GiantKernels > 0 && s.GiantBoost <= 1:
		return fmt.Errorf("workloads: %s: giant boost %g must exceed 1", s.Name, s.GiantBoost)
	}
	return nil
}

// Suite name constants.
const (
	SuiteParboil = "Parboil"
	SuiteRodinia = "Rodinia"
	SuiteSDK     = "SDK"
	SuiteCactus  = "Cactus"
	SuiteMLPerf  = "MLPerf"
)

// simple builds a traditional-suite spec: easy to sample, no warm-up ramp,
// little hidden jitter — both Sieve and PKS should be accurate (Fig. 8).
func simple(suite, name string, kernels, invocations int, seed int64) Spec {
	return Spec{
		Name: name, Suite: suite, Kernels: kernels, FullInvocations: invocations, Seed: seed,
		Tier1Frac: 0.6, Tier3Frac: 0, LowVarCoVLo: 0.02, LowVarCoVHi: 0.2,
		Skew: 0.4, LocalityJitter: 0.015, FP32Lo: 0.2, FP32Hi: 0.7,
	}
}

// cactus builds a Cactus-suite spec with the challenging defaults: warm-up
// ramp, meaningful hidden jitter, many kernels.
func cactus(name string, kernels, invocations int, seed int64) Spec {
	return Spec{
		Name: name, Suite: SuiteCactus, Kernels: kernels, FullInvocations: invocations, Seed: seed,
		Tier1Frac: 0.4, Tier3Frac: 0.2, LowVarCoVLo: 0.02, LowVarCoVHi: 0.45,
		Skew: 0.45, LocalityJitter: 0.02, FP32Lo: 0.1, FP32Hi: 0.8,
		Uniformity: 0.85, InstrLo: 6e7, InstrHi: 3e8, HotCacheFrac: 0.15,
		RampFrac: 0.015, RampScale: 0.95, ColdScale: 0.3,
	}
}

// mlperf builds an MLPerf-inference spec: tensor-heavy, diverse instruction
// mix, warm-up ramp.
func mlperf(name string, kernels, invocations int, seed int64) Spec {
	return Spec{
		Name: name, Suite: SuiteMLPerf, Kernels: kernels, FullInvocations: invocations, Seed: seed,
		Tier1Frac: 0.45, Tier3Frac: 0.15, LowVarCoVLo: 0.02, LowVarCoVHi: 0.45,
		Skew: 0.45, LocalityJitter: 0.02, TensorFrac: 0.55, FP32Lo: 0.2, FP32Hi: 0.9,
		Uniformity: 0.85, InstrLo: 5e7, InstrHi: 4e8, HotCacheFrac: 0.3,
		RampFrac: 0.012, RampScale: 0.95, ColdScale: 0.3,
	}
}

// Catalog returns the specification of every workload in Table I, in suite
// order. The returned slice is freshly allocated; callers may modify it.
func Catalog() []Spec {
	specs := []Spec{
		// --- Parboil -----------------------------------------------------
		simple(SuiteParboil, "bfs_ny", 2, 11, 101),
		simple(SuiteParboil, "histo", 4, 252, 102),
		simple(SuiteParboil, "lbm", 1, 3000, 103),
		simple(SuiteParboil, "mri-g", 9, 51, 104),
		simple(SuiteParboil, "stencil", 1, 100, 105),
		// --- Rodinia -----------------------------------------------------
		simple(SuiteRodinia, "cfd", 4, 14003, 201),
		simple(SuiteRodinia, "dwt2d", 4, 10, 202),
		simple(SuiteRodinia, "gaussian", 2, 16382, 203),
		simple(SuiteRodinia, "heartwall", 1, 20, 204),
		simple(SuiteRodinia, "hotspot3d", 1, 100, 205),
		simple(SuiteRodinia, "huffman", 6, 46, 206),
		simple(SuiteRodinia, "lud", 3, 22, 207),
		simple(SuiteRodinia, "nw", 2, 255, 208),
		simple(SuiteRodinia, "srad", 6, 502, 209),
		// --- CUDA SDK ----------------------------------------------------
		simple(SuiteSDK, "blackscholes", 1, 512, 301),
		simple(SuiteSDK, "cholesky", 25, 143, 302),
		simple(SuiteSDK, "gradient", 7, 84, 303),
		simple(SuiteSDK, "dct8x8", 8, 118, 304),
		simple(SuiteSDK, "histogram", 4, 68, 305),
		simple(SuiteSDK, "hsopticalflow", 6, 7576, 306),
		simple(SuiteSDK, "mergesort", 4, 49, 307),
		simple(SuiteSDK, "nvjpeg", 2, 32, 308),
		simple(SuiteSDK, "random", 2, 42, 309),
		simple(SuiteSDK, "sortingnet", 4, 290, 310),
		// --- Cactus ------------------------------------------------------
		cactus("gru", 8, 43837, 401),
		cactus("gst", 15, 175, 402),
		cactus("gms", 14, 92520, 403),
		cactus("lmc", 58, 248548, 404),
		cactus("lmr", 62, 74765, 405),
		cactus("dcg", 59, 414585, 406),
		cactus("lgt", 74, 532707, 407),
		cactus("nst", 50, 1072246, 408),
		cactus("rfl", 57, 206407, 409),
		cactus("spt", 43, 112668, 410),
		// --- MLPerf inference ---------------------------------------------
		mlperf("3d-unet", 20, 113183, 501),
		mlperf("bert", 11, 141964, 502),
		mlperf("resnet50", 20, 78825, 503),
		mlperf("rnnt", 39, 205440, 504),
		mlperf("ssd-mobilenet", 33, 64138, 505),
		mlperf("ssd-resnet34", 26, 57267, 506),
	}

	// Per-workload personalities, matching the behaviours the paper calls
	// out (Section III-B and Fig. 2 discussion, Section V).
	adjust := map[string]func(*Spec){
		// gms and lmr: all invocations Tier-1/2 even at θ = 0.1.
		"gms": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.55, 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.02, 0.08
			s.ColdScale = 0.35
			s.HotCacheFrac = 0
		},
		"lmr": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.5, 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.02, 0.09
			s.L2Straddle = true
			s.ColdScale = 0.4
			s.HotCacheFrac = 0
		},
		// gru and lmc: all Tier-1/2 for θ at 0.5 and above.
		"gru": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.35, 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.12, 0.45
			s.ColdScale = 0.45
			s.HotCacheFrac = 0
		},
		"lmc": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.3, 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.12, 0.48
			s.L2Straddle = true
			s.LocalityJitter = 0.035 // paper: lmc has Sieve's largest cycle CoV (0.2)
			s.ColdScale = 0.45
			s.HotCacheFrac = 0
		},
		// gst: largest Tier-3 fraction (>50%) and the dominant invocation.
		"gst": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.1, 0.7
			s.DominantInvocation = true
			s.FP32Lo, s.FP32Hi = 0.6, 0.95 // markedly faster on Ampere (Fig. 9)
			s.HotCacheFrac = 0.55
			s.ColdScale = 0.3
		},
		// dcg and lgt: high Tier-3 shares, strongly Ampere-friendly, large
		// PKS within-cluster dispersion.
		"dcg": func(s *Spec) {
			s.Tier3Frac = 0.3
			s.FP32Lo, s.FP32Hi = 0.55, 0.95
			s.HotCacheFrac = 0.3
			s.ColdScale = 0.4
		},
		"lgt": func(s *Spec) {
			s.Tier3Frac = 0.35
			s.FP32Lo, s.FP32Hi = 0.5, 0.9
			s.HotCacheFrac = 0.4
			s.ColdScale = 0.12
			s.RampFrac = 0.025
		},
		// nst and spt: sizable Tier-3 share; spt is PKS's worst case (60.4%).
		"nst": func(s *Spec) { s.Tier3Frac = 0.3; s.ColdScale = 0.3; s.RampFrac = 0.02; s.HotCacheFrac = 0.3 },
		"spt": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.15, 0.35
			s.HotCacheFrac = 0.45
			s.ColdScale = 0.04
			s.RampFrac = 0.025
		},
		// bert and resnet50: all Tier-1/2 at θ ≥ 0.5.
		"bert": func(s *Spec) {
			s.Tier3Frac = 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.1, 0.45
			s.ColdScale = 0.3
		},
		"resnet50": func(s *Spec) {
			s.Tier3Frac = 0
			s.LowVarCoVLo, s.LowVarCoVHi = 0.08, 0.42
			s.RampFrac = 0.01
			s.ColdScale = 0.3
		},
		// rnnt: Sieve's max MLPerf error (3.2%) and PKS at 46%.
		"rnnt": func(s *Spec) {
			s.Tier1Frac, s.Tier3Frac = 0.2, 0.25
			s.LocalityJitter = 0.035
			s.ColdScale = 0.22
			s.RampFrac = 0.015
		},
		"rfl":           func(s *Spec) { s.ColdScale = 0.1 },
		"3d-unet":       func(s *Spec) { s.RampFrac = 0.01; s.ColdScale = 0.15 },
		"ssd-mobilenet": func(s *Spec) { s.RampFrac = 0.01; s.ColdScale = 0.1 },
		"ssd-resnet34":  func(s *Spec) { s.ColdScale = 0.15 },
		// cfd is the one traditional workload PKS struggles with (23%,
		// Fig. 8): pronounced warm-up behaviour whose cold representatives
		// mislead the count-weighted first-chronological estimator, while
		// Sieve's dominant-CTA selection and CPI weighting absorb it.
		"cfd": func(s *Spec) {
			s.Tier1Frac = 0.25
			s.LowVarCoVLo, s.LowVarCoVHi = 0.1, 0.35
			s.RampFrac, s.RampScale = 0.015, 0.95
			s.ColdScale = 0.08
			s.Uniformity = 0.85
		},
	}
	for i := range specs {
		if f, ok := adjust[specs[i].Name]; ok {
			f(&specs[i])
		}
	}
	return specs
}

// ByName returns the catalog spec with the given workload name.
func ByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// BySuite returns the catalog specs belonging to the named suite, in catalog
// order. An unknown suite yields an error.
func BySuite(suite string) ([]Spec, error) {
	var out []Spec
	for _, s := range Catalog() {
		if s.Suite == suite {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workloads: unknown suite %q", suite)
	}
	return out, nil
}

// Names returns all workload names, sorted.
func Names() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}
