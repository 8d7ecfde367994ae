// Command sieve runs the Sieve sampling pipeline on one workload: profile
// (or load a profile CSV), stratify, select weighted representative kernel
// invocations, and optionally validate the prediction against the golden
// full-run measurement.
//
// Usage:
//
//	sieve -workload lmc -scale 0.05                  # end to end with validation
//	sieve -workload lmc -profile-out lmc.csv         # emit the profile CSV
//	sieve -profile-in lmc.csv                        # stratify a saved profile
//	sieve -workload rnnt -theta 0.2 -policy max-cta  # explore options
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/cliflags"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/sampler"
)

func main() {
	var (
		workload     = flag.String("workload", "", "Table I workload name to generate and profile")
		specFile     = flag.String("spec", "", "generate from a custom workload spec JSON instead of a catalog name")
		scale        = cliflags.Scale(flag.CommandLine, 0.05)
		theta        = cliflags.Theta(flag.CommandLine)
		policy       = flag.String("policy", "dominant-cta-first", "representative policy: dominant-cta-first, first-chronological, max-cta")
		splitter     = flag.String("splitter", "kde", "Tier-3 splitter: kde, equal-width, gmm")
		arch         = cliflags.Arch(flag.CommandLine)
		profileIn    = flag.String("profile-in", "", "read the profile from this CSV instead of profiling")
		profileOut   = flag.String("profile-out", "", "write the instruction-count profile CSV here")
		validate     = flag.Bool("validate", true, "measure the full run and report prediction error (needs -workload)")
		characterize = flag.Bool("characterize", false, "print the per-kernel workload characterization")
		parallelism  = cliflags.Parallelism(flag.CommandLine)
		method       = cliflags.Method(flag.CommandLine)
		seed         = cliflags.Seed(flag.CommandLine)
		logLevel     = cliflags.LogLevel(flag.CommandLine)
	)
	stream, reservoir := cliflags.Stream(flag.CommandLine)
	report, traceOut := cliflags.Report(flag.CommandLine)
	flag.Parse()
	logger := cliflags.MustLogger("sieve", *logLevel)
	if *characterize {
		if err := runCharacterize(*workload, *scale, *theta, *arch, *profileIn); err != nil {
			logger.Error("characterize failed", "error", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		Workload: *workload, SpecFile: *specFile, Scale: *scale, Theta: *theta,
		Policy: *policy, Splitter: *splitter, Arch: *arch,
		ProfileIn: *profileIn, ProfileOut: *profileOut,
		Validate: *validate, Parallelism: *parallelism,
		Stream: *stream, Reservoir: *reservoir,
		Method: *method, Seed: *seed,
		Report: *report, TraceOut: *traceOut,
	}
	if err := run(cfg); err != nil {
		logger.Error("run failed", "error", err)
		os.Exit(1)
	}
}

// runConfig carries the resolved command-line options.
type runConfig struct {
	Workload, SpecFile     string
	Scale, Theta           float64
	Policy, Splitter, Arch string
	ProfileIn, ProfileOut  string
	Validate               bool
	Parallelism            int
	Stream                 bool
	Reservoir              int
	Method                 string
	Seed                   int64
	Report, TraceOut       string
}

func run(cfg runConfig) error {
	workload, specFile := cfg.Workload, cfg.SpecFile
	scale := cfg.Scale
	policyName, splitterName, archName := cfg.Policy, cfg.Splitter, cfg.Arch
	profileIn, profileOut := cfg.ProfileIn, cfg.ProfileOut
	validate := cfg.Validate
	opts := sieve.Options{Theta: cfg.Theta, Parallelism: cfg.Parallelism}
	switch policyName {
	case "dominant-cta-first":
		opts.Selection = sieve.SelectDominantCTAFirst
	case "first-chronological":
		opts.Selection = sieve.SelectFirstChronological
	case "max-cta":
		opts.Selection = sieve.SelectMaxCTA
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	switch splitterName {
	case "kde":
		opts.Tier3Splitter = sieve.SplitKDE
	case "equal-width":
		opts.Tier3Splitter = sieve.SplitEqualWidth
	case "gmm":
		opts.Tier3Splitter = sieve.SplitGMM
	default:
		return fmt.Errorf("unknown splitter %q", splitterName)
	}
	archCfg, err := sieve.ResolveArch(archName)
	if err != nil {
		return err
	}
	hw, err := sieve.NewHardware(archCfg)
	if err != nil {
		return err
	}
	if cfg.Stream && profileIn != "" && profileOut != "" {
		return fmt.Errorf("-profile-out needs a materialized profile; drop it or drop -stream")
	}
	method := sampler.Canonical(cfg.Method)
	if _, err := sampler.New(method); err != nil {
		return err
	}
	if method != core.MethodSieve && cfg.Stream {
		return fmt.Errorf("-method %s does not support -stream (only the default sieve sampler streams)", method)
	}

	// -report / -trace-out attach an observability collector to the context the
	// sampling pipeline runs under; without them the context stays bare and the
	// pipeline records nothing.
	ctx := context.Background()
	var col *sieve.Collector
	if cfg.Report != "" || cfg.TraceOut != "" {
		col = sieve.NewCollector()
		ctx = sieve.WithCollector(ctx, col)
	}

	var profile *sieve.Profile
	var w *sieve.Workload
	switch {
	case specFile != "":
		f, err := os.Open(specFile)
		if err != nil {
			return err
		}
		spec, err := sieve.ReadWorkloadSpecJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		if w, err = sieve.GenerateFromSpec(spec, scale); err != nil {
			return err
		}
		fmt.Printf("custom workload %s (%s): %d kernels, %d invocations\n",
			w.Name, w.Suite, w.NumKernels(), w.NumInvocations())
		if profile, err = sieve.ProfileInstructionCounts(w, hw); err != nil {
			return err
		}
	case profileIn != "":
		validate = false // no workload to measure
		if cfg.Stream {
			// Leave the profile on disk: SampleCSV streams it row by row.
			break
		}
		f, err := os.Open(profileIn)
		if err != nil {
			return err
		}
		defer f.Close()
		if profile, err = sieve.ReadProfileCSV(f); err != nil {
			return err
		}
		fmt.Printf("loaded profile: %d invocations from %s\n", profile.NumInvocations(), profileIn)
	case workload != "":
		if w, err = sieve.GenerateWorkload(workload, scale); err != nil {
			return err
		}
		fmt.Printf("workload %s (%s): %d kernels, %d invocations\n",
			w.Name, w.Suite, w.NumKernels(), w.NumInvocations())
		if profile, err = sieve.ProfileInstructionCounts(w, hw); err != nil {
			return err
		}
		fmt.Printf("profiled with %s in %.1fs (modeled)\n", profile.Tool, profile.WallSeconds)
	default:
		return fmt.Errorf("need -workload or -profile-in")
	}

	if profileOut != "" {
		f, err := os.Create(profileOut)
		if err != nil {
			return err
		}
		if err := sieve.WriteProfileCSV(profile, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("profile CSV written to %s\n", profileOut)
	}

	var plan *sieve.Plan
	switch {
	case cfg.Stream && profile == nil:
		// -stream -profile-in: the bounded-memory path end to end — the
		// profile table is never materialized.
		f, err := os.Open(profileIn)
		if err != nil {
			return err
		}
		plan, err = sieve.SampleCSVContext(ctx, f, sieve.StreamOptions{Options: opts, ReservoirSize: cfg.Reservoir})
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("streamed profile from %s\n", profileIn)
	case cfg.Stream:
		plan, err = sieve.SampleStreamContext(ctx, sieve.SliceSource(sieve.ProfileRows(profile)),
			sieve.StreamOptions{Options: opts, ReservoirSize: cfg.Reservoir})
		if err != nil {
			return err
		}
	default:
		mp := &sieve.MethodProfile{Rows: sieve.ProfileRows(profile)}
		if method == sampler.MethodPKS {
			if w == nil {
				return fmt.Errorf("-method pks needs a generated workload (-workload or -spec): its feature vectors and golden cycle reference come from full profiling")
			}
			full, err := sieve.ProfileFull(w, hw)
			if err != nil {
				return err
			}
			mp.Features = sieve.FeatureRows(full)
			mp.GoldenCycles = hw.MeasureWorkload(w)
		}
		plan, err = sieve.SampleMethodContext(ctx, method, mp, sieve.MethodOptions{
			Core: opts,
			Seed: cfg.Seed,
			PKS:  pks.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism},
		})
		if err != nil {
			return err
		}
	}
	if col != nil {
		if err := cliflags.WriteObsOutputs(col, cfg.Report, cfg.TraceOut); err != nil {
			return err
		}
		if cfg.Report != "" && cfg.Report != "-" {
			fmt.Printf("observability report written to %s\n", cfg.Report)
		}
		if cfg.TraceOut != "" && cfg.TraceOut != "-" {
			fmt.Printf("trace-event JSON written to %s\n", cfg.TraceOut)
		}
	}
	printPlan(plan)
	if plan.Method != "" {
		fmt.Printf("methodology: %s (seed %d)\n", plan.Method, cfg.Seed)
	}
	if iv := plan.Interval; iv != nil {
		if iv.Resamples > 0 {
			fmt.Printf("resampled error interval (%d resamples): %.3f%% ± %.3f%%, 2σ band [%.3f%%, %.3f%%]\n",
				iv.Resamples, 100*iv.Mean, 100*iv.StdErr, 100*iv.Low, 100*iv.High)
		} else {
			fmt.Printf("analytic error interval: ±%.3f%% (2σ band [%.3f%%, %.3f%%])\n",
				100*iv.StdErr, 100*iv.Low, 100*iv.High)
		}
	}
	if bound, err := plan.EstimateErrorBound(); err == nil {
		fmt.Printf("\nheuristic uncertainty (no golden reference): ±%.2f%% (2σ); worst stratum %s (%.0f%% of variance)\n",
			100*bound.TwoSigma, bound.WorstStratum, 100*bound.WorstContribution)
	}

	if validate && w != nil {
		golden := hw.MeasureWorkload(w)
		pred, err := plan.Predict(func(i int) (float64, error) { return golden[i], nil })
		if err != nil {
			return err
		}
		var total float64
		for _, c := range golden {
			total += c
		}
		fmt.Printf("\nvalidation on %s:\n", archCfg.Name)
		fmt.Printf("  golden cycles     %.4g\n", total)
		fmt.Printf("  predicted cycles  %.4g\n", pred.Cycles)
		fmt.Printf("  predicted IPC     %.2f\n", pred.IPC)
		fmt.Printf("  error             %.2f%%\n", 100*abs(pred.Cycles-total)/total)
		if plan.Sampled {
			fmt.Printf("  simulation speedup unavailable (sampled plan: membership lists are partial)\n")
		} else {
			sp, err := plan.Speedup(golden)
			if err != nil {
				return err
			}
			fmt.Printf("  simulation speedup %.0fx\n", sp)
		}
	}
	return nil
}

// runCharacterize prints the per-kernel workload characterization.
func runCharacterize(workload string, scale, theta float64, archName, profileIn string) error {
	archCfg, err := sieve.ResolveArch(archName)
	if err != nil {
		return err
	}
	var profile *sieve.Profile
	switch {
	case profileIn != "":
		f, err := os.Open(profileIn)
		if err != nil {
			return err
		}
		defer f.Close()
		if profile, err = sieve.ReadProfileCSV(f); err != nil {
			return err
		}
	case workload != "":
		w, err := sieve.GenerateWorkload(workload, scale)
		if err != nil {
			return err
		}
		hw, err := sieve.NewHardware(archCfg)
		if err != nil {
			return err
		}
		if profile, err = sieve.ProfileInstructionCounts(w, hw); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workload or -profile-in")
	}
	sums, err := sieve.Characterize(sieve.ProfileRows(profile), theta)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %6s %-7s %8s %10s %10s %10s %7s %7s %7s\n",
		"kernel", "invocs", "tier", "share", "instr min", "instr mean", "instr max", "CoV", "CTA", "strata")
	for _, s := range sums {
		fmt.Printf("%-28s %6d %-7s %7.2f%% %10.3g %10.3g %10.3g %7.3f %7d %7d\n",
			s.Kernel, s.Invocations, s.Tier, 100*s.InstrShare,
			s.InstrMin, s.InstrMean, s.InstrMax, s.InstrCoV, s.DominantCTA, s.Strata)
	}
	return nil
}

func printPlan(plan *sieve.Plan) {
	// TierInvocations counts every streamed invocation even when a sampled
	// plan retains only a bounded subset per stratum, so it is the honest
	// total for both paths.
	total := plan.TierInvocations[0] + plan.TierInvocations[1] + plan.TierInvocations[2]
	fmt.Printf("\nstratification (θ=%.2f): %d strata over %d invocations\n",
		plan.Theta, plan.NumStrata(), total)
	if plan.Sampled {
		fmt.Printf("sampled plan: %d invocations retained in bounded reservoirs\n", plan.NumInvocations())
	}
	fmt.Printf("tier mix: Tier-1 %d, Tier-2 %d, Tier-3 %d invocations\n",
		plan.TierInvocations[0], plan.TierInvocations[1], plan.TierInvocations[2])

	strata := append([]sieve.Stratum(nil), plan.Strata...)
	sort.Slice(strata, func(a, b int) bool { return strata[a].Weight > strata[b].Weight })
	limit := 15
	if len(strata) < limit {
		limit = len(strata)
	}
	fmt.Printf("\ntop %d strata by weight:\n", limit)
	fmt.Printf("  %-28s %-7s %9s %8s %12s\n", "kernel", "tier", "members", "weight", "rep(index)")
	for _, s := range strata[:limit] {
		fmt.Printf("  %-28s %-7s %9d %7.2f%% %12d\n",
			s.Kernel, s.Tier, len(s.Invocations), 100*s.Weight, s.Representative)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
