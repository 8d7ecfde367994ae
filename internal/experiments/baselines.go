package experiments

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/sim"
	"github.com/gpusampling/sieve/internal/stats"
	"github.com/gpusampling/sieve/internal/trace"
)

// Three-way baseline comparison: Sieve versus PKS (k-means) versus a
// TBPoint-style variant (agglomerative hierarchical clustering over the same
// 12 characteristics) — the progression of prior work the paper's related-
// work section describes.

// BaselineRow is one workload's error under each method.
type BaselineRow struct {
	Name    string
	Sieve   float64
	PKS     float64
	TBPoint float64
}

// Baselines compares the three methods on the challenging suites.
func (r *Runner) Baselines() ([]BaselineRow, error) {
	var rows []BaselineRow
	for _, name := range challengingNames() {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		row := BaselineRow{Name: name}
		if row.Sieve, err = p.predictError(p.plans[core.MethodSieve]); err != nil {
			return nil, err
		}
		if row.PKS, err = p.predictError(p.plans[sampler.MethodPKS]); err != nil {
			return nil, err
		}
		opts := r.cfg.options()
		opts.PKS.Clustering = pks.AlgoHierarchical
		tb, err := sampler.Run(r.cfg.ctx(), sampler.MethodPKS, p.profile, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: tbpoint: %w", name, err)
		}
		if row.TBPoint, err = p.predictError(tb); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBaselines formats the three-way comparison.
func RenderBaselines(rows []BaselineRow) *Table {
	t := &Table{
		Title:  "Baselines: Sieve vs PKS (k-means) vs TBPoint-style (hierarchical)",
		Header: []string{"workload", "Sieve", "PKS", "TBPoint-style"},
	}
	var s, p, tb float64
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.Sieve), pct(row.PKS), pct(row.TBPoint)})
		s += row.Sieve
		p += row.PKS
		tb += row.TBPoint
	}
	n := float64(len(rows))
	t.Rows = append(t.Rows, []string{"average", pct(s / n), pct(p / n), pct(tb / n)})
	t.Notes = append(t.Notes,
		"the related-work progression: hierarchical clustering (TBPoint) -> k-means",
		"with a golden-referenced k (PKS) -> per-kernel stratification (Sieve)")
	return t
}

// --- analytical-model / detailed-simulator cross-validation --------------------

// XValRow correlates the analytical hardware model with the trace-driven
// simulator on one workload's representatives. The two substrates are
// independent implementations; a strong rank correlation between their
// per-representative IPC orderings is the reproduction's internal
// consistency check.
type XValRow struct {
	Name            string
	Representatives int
	// Spearman is the rank correlation between analytical and simulated
	// IPC across the representatives.
	Spearman float64
}

// xvalWorkloads bounds the simulation work.
var xvalWorkloads = []string{"gms", "lmc", "bert"}

// CrossValidate traces every representative of a few workloads, simulates
// them, and rank-correlates simulated IPC with the analytical model's IPC.
func (r *Runner) CrossValidate(maxWarpInstrs int) ([]XValRow, error) {
	if maxWarpInstrs <= 0 {
		maxWarpInstrs = 60000
	}
	simulator, err := sim.New(gpu.Ampere())
	if err != nil {
		return nil, err
	}
	var rows []XValRow
	for _, name := range xvalWorkloads {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		var analytical, simulated []float64
		for _, idx := range p.plans[core.MethodSieve].RepresentativeIndices() {
			inv := &p.w.Invocations[idx]
			tr, err := trace.Generate(inv, maxWarpInstrs, r.cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err := simulator.Simulate(tr)
			if err != nil {
				return nil, err
			}
			analytical = append(analytical, p.hw.IPC(inv))
			simulated = append(simulated, res.IPC)
		}
		rho, err := stats.Spearman(analytical, simulated)
		if err != nil {
			return nil, err
		}
		rows = append(rows, XValRow{
			Name:            name,
			Representatives: len(analytical),
			Spearman:        rho,
		})
	}
	return rows, nil
}

// RenderXVal formats the cross-validation study.
func RenderXVal(rows []XValRow) *Table {
	t := &Table{
		Title:  "Cross-validation: analytical hardware model vs trace-driven simulator",
		Header: []string{"workload", "representatives", "Spearman(IPC)"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name, fmt.Sprintf("%d", row.Representatives), fmt.Sprintf("%.3f", row.Spearman),
		})
	}
	t.Notes = append(t.Notes,
		"the analytical golden-reference model and the cycle-level simulator are",
		"independent implementations; a high rank correlation of per-representative",
		"IPC is the reproduction's internal consistency check")
	return t
}
