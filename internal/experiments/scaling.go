package experiments

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/stats"
	"github.com/gpusampling/sieve/internal/workloads"
)

// Scaling study: the reproduction generates workloads at a fraction of
// Table I's invocation counts, and EXPERIMENTS.md claims simulation speedup
// grows roughly linearly with that fraction while accuracy stays flat. This
// experiment measures both claims directly, so the extrapolation from
// scaled runs to the paper's full-count speedups is evidence, not assertion.

// ScalingPoint is one (workload, scale) measurement.
type ScalingPoint struct {
	Scale       float64
	Invocations int
	Strata      int
	Error       float64
	Speedup     float64
}

// ScalingRow is one workload's scale sweep.
type ScalingRow struct {
	Name   string
	Points []ScalingPoint
}

// scalingWorkloads keeps the sweep affordable while covering different
// kernel-count regimes.
var scalingWorkloads = []string{"gru", "lmc", "rnnt"}

// scalingScales is the swept generation fraction.
var scalingScales = []float64{0.01, 0.02, 0.04, 0.08}

// Scaling runs the scale-sensitivity study with the runner's θ and seed.
func (r *Runner) Scaling() ([]ScalingRow, error) {
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for _, name := range scalingWorkloads {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		row := ScalingRow{Name: name}
		for _, scale := range scalingScales {
			w, err := workloads.Generate(spec, scale)
			if err != nil {
				return nil, err
			}
			prof, err := profiler.NewInstructionCountProfiler().Profile(w, hw)
			if err != nil {
				return nil, err
			}
			plan, err := r.cfg.stratify(prof.Rows(), r.cfg.Theta)
			if err != nil {
				return nil, err
			}
			golden := hw.MeasureWorkload(w)
			pred, err := plan.Predict(cyclesFrom(golden))
			if err != nil {
				return nil, err
			}
			sp, err := plan.Speedup(golden)
			if err != nil {
				return nil, err
			}
			row.Points = append(row.Points, ScalingPoint{
				Scale:       scale,
				Invocations: w.NumInvocations(),
				Strata:      plan.NumStrata(),
				Error:       relErr(pred.Cycles, stats.Sum(golden)),
				Speedup:     sp,
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling formats the scaling study.
func RenderScaling(rows []ScalingRow) *Table {
	t := &Table{
		Title:  "Scaling study: Sieve accuracy and speedup vs generated workload scale",
		Header: []string{"workload", "scale", "invocations", "strata", "error", "speedup"},
	}
	for _, row := range rows {
		for _, p := range row.Points {
			t.Rows = append(t.Rows, []string{
				row.Name,
				fmt.Sprintf("%.2f", p.Scale),
				fmt.Sprintf("%d", p.Invocations),
				fmt.Sprintf("%d", p.Strata),
				pct(p.Error),
				times(p.Speedup),
			})
		}
	}
	t.Notes = append(t.Notes,
		"speedup grows ~linearly with the profiled invocation count (strata counts",
		"saturate at the kernel structure) while accuracy stays flat — the basis for",
		"extrapolating scaled-run speedups to the paper's full Table I counts")
	return t
}
