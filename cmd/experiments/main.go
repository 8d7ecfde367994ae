// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V) against the synthetic reproduction substrate.
//
// Usage:
//
//	experiments -experiment all
//	experiments -experiment fig3 -scale 0.1
//	experiments -experiment fig9 -seed 7
//
// Valid experiment ids: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 warmup sim dse scaling baselines xval all. The warmup study
// implements the paper's stated future work; sim reproduces Section V-G;
// dse sweeps the design space the sampling plan is meant to drive; scaling
// validates the speedup-vs-scale extrapolation; baselines adds the
// TBPoint-style related-work comparator; xval rank-correlates the analytical
// model with the cycle-level simulator.
//
// Stdout is byte-reproducible for a given scale, θ and seed, at any
// -workers; the only host-dependent numbers, sim's wall-clock simulation
// times, go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/gpusampling/sieve/internal/cliflags"
	"github.com/gpusampling/sieve/internal/experiments"
	"github.com/gpusampling/sieve/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table1, table2, fig2..fig10, all)")
		scale      = cliflags.Scale(flag.CommandLine, 0)
		theta      = cliflags.Theta(flag.CommandLine)
		seed       = cliflags.Seed(flag.CommandLine)
		workers    = cliflags.Parallelism(flag.CommandLine, "workers")
		method     = flag.String("method", "", "comma-separated sampling methodologies the accuracy tables compare beside sieve and pks (empty = every method)")
		logLevel   = cliflags.LogLevel(flag.CommandLine)
	)
	report, traceOut := cliflags.Report(flag.CommandLine)
	flag.Parse()
	logger := cliflags.MustLogger("experiments", *logLevel)

	// -report / -trace-out record per-stage spans across every experiment's
	// sampling runs into one collector, exported after the tables print.
	ctx := context.Background()
	var col *obs.Collector
	if *report != "" || *traceOut != "" {
		col = obs.New()
		ctx = obs.WithCollector(ctx, col)
	}

	r := experiments.NewRunner(experiments.Config{
		Scale: *scale, Theta: *theta, Seed: *seed, Parallelism: *workers, Ctx: ctx,
		Methods: cliflags.SplitList(*method),
	})
	ids := strings.Split(strings.ToLower(*experiment), ",")
	if len(ids) == 1 && ids[0] == "all" {
		ids = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "warmup", "sim", "dse", "scaling", "baselines", "xval"}
	}
	if err := run(r, ids, *workers); err != nil {
		logger.Error("run failed", "error", err)
		os.Exit(1)
	}
	if err := cliflags.WriteObsOutputs(col, *report, *traceOut); err != nil {
		logger.Error("observability export failed", "error", err)
		os.Exit(1)
	}
}

func run(r *experiments.Runner, ids []string, workers int) error {
	fmt.Printf("config: scale=%g theta=%g seed=%d\n\n",
		r.Config().Scale, r.Config().Theta, r.Config().Seed)
	// Pre-warm the workload pipelines in parallel: figures share them.
	var warm []string
	for _, id := range ids {
		switch id {
		case "table1":
			warm = append(warm, experiments.ChallengingNames()...)
			warm = append(warm, experiments.TraditionalNames()...)
		case "fig8":
			warm = append(warm, experiments.TraditionalNames()...)
		case "table2":
		default:
			warm = append(warm, experiments.ChallengingNames()...)
		}
	}
	if len(warm) > 0 {
		if err := r.Warm(dedup(warm), workers); err != nil {
			return err
		}
	}
	for _, id := range ids {
		tab, err := produce(r, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := tab.Print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func dedup(names []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func produce(r *experiments.Runner, id string) (*experiments.Table, error) {
	switch id {
	case "table1":
		return r.Table1()
	case "table2":
		return experiments.Table2(), nil
	case "fig2":
		rows, err := r.Fig2()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig2(rows), nil
	case "fig3":
		evs, err := r.Fig3()
		if err != nil {
			return nil, err
		}
		return experiments.RenderAccuracy(
			"Fig. 3: prediction error for Sieve and PKS (Cactus + MLPerf)", evs,
			"paper: Sieve 1.2% avg (max 3.2%); PKS 16.5% avg (max 60.4% spt, 46% rnnt)"), nil
	case "fig4":
		evs, err := r.Fig3()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig4(evs), nil
	case "fig5":
		rows, err := r.Fig5()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig5(rows), nil
	case "fig6":
		evs, err := r.Fig3()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig6(evs)
	case "fig7":
		rows, err := r.Fig7()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig7(rows)
	case "fig8":
		evs, err := r.Fig8()
		if err != nil {
			return nil, err
		}
		return experiments.RenderAccuracy(
			"Fig. 8: prediction error in traditional suites (Parboil + Rodinia + SDK)", evs,
			"paper: Sieve 0.32% avg (max 2.3%); PKS 1.3% avg (max 23% cfd)"), nil
	case "fig9":
		rows, err := r.Fig9()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig9(rows), nil
	case "fig10":
		points, err := r.Fig10()
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig10(points), nil
	case "warmup":
		rows, err := r.WarmupStudy()
		if err != nil {
			return nil, err
		}
		return experiments.RenderWarmup(rows), nil
	case "sim":
		rows, err := r.SimStudy(0)
		if err != nil {
			return nil, err
		}
		// Wall-clock times go to stderr so stdout stays byte-reproducible.
		if err := experiments.RenderSimWall(rows).Print(os.Stderr); err != nil {
			return nil, err
		}
		return experiments.RenderSimStudy(rows), nil
	case "dse":
		results, err := r.DSE()
		if err != nil {
			return nil, err
		}
		return experiments.RenderDSE(results), nil
	case "scaling":
		rows, err := r.Scaling()
		if err != nil {
			return nil, err
		}
		return experiments.RenderScaling(rows), nil
	case "baselines":
		rows, err := r.Baselines()
		if err != nil {
			return nil, err
		}
		return experiments.RenderBaselines(rows), nil
	case "xval":
		rows, err := r.CrossValidate(0)
		if err != nil {
			return nil, err
		}
		return experiments.RenderXVal(rows), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
