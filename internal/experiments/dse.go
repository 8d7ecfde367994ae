package experiments

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/stats"
)

// Design-space exploration: the whole point of a sampling methodology
// (Fig. 1 of the paper: the representative kernel invocations "drive
// architecture design space exploration"). Sieve selects representatives
// once — from a microarchitecture-independent profile — and the same plan is
// then evaluated on every candidate configuration. This study sweeps the
// Ampere baseline across SM count and DRAM bandwidth and checks that the
// sampled prediction tracks the golden full-run measurement at every design
// point.

// DSEPoint is one design point's outcome for one workload.
type DSEPoint struct {
	// Config describes the swept parameters.
	SMs          int
	BandwidthGBs float64
	// GoldenCycles and PredictedCycles compare the full run with the
	// Sieve-sampled prediction on this configuration.
	GoldenCycles, PredictedCycles float64
	// Error is |predicted-golden|/golden.
	Error float64
	// SpeedupVsBase is the golden performance of this point relative to the
	// baseline configuration (wall-clock, same clock assumed).
	SpeedupVsBase float64
}

// DSEResult is the sweep for one workload.
type DSEResult struct {
	Name   string
	Points []DSEPoint
	// MaxError and MeanError aggregate the per-point prediction errors.
	MaxError, MeanError float64
	// RankFidelity is 1 when the sampled predictions order every pair of
	// design points the same way the golden measurements do (Kendall-style
	// pairwise concordance).
	RankFidelity float64
}

// dseSweep enumerates the swept configurations: SM count and memory
// bandwidth each at 50%, 75%, 100%, 125% and 150% of the Ampere baseline
// (varied one at a time, plus the corners).
func dseSweep() []gpu.Arch {
	base := gpu.Ampere()
	factors := []float64{0.5, 0.75, 1.0, 1.25, 1.5}
	var out []gpu.Arch
	seen := map[string]bool{}
	add := func(smF, bwF float64) {
		a := base
		a.SMs = int(float64(base.SMs)*smF + 0.5)
		a.DRAMBandwidthGBs = base.DRAMBandwidthGBs * bwF
		a.Name = fmt.Sprintf("ampere-sm%.2f-bw%.2f", smF, bwF)
		if !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a)
		}
	}
	for _, f := range factors {
		add(f, 1.0)
		add(1.0, f)
	}
	add(0.5, 0.5)
	add(1.5, 1.5)
	return out
}

// dseWorkloads is the subset swept; enough to cover memory-bound,
// compute-heavy and tensor-heavy behaviour without a quadratic runtime.
var dseWorkloads = []string{"lmc", "dcg", "bert", "rnnt"}

// DSE runs the design-space exploration study.
func (r *Runner) DSE() ([]DSEResult, error) {
	configs := dseSweep()
	var out []DSEResult
	for _, name := range dseWorkloads {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		res := DSEResult{Name: name}
		var baseGolden float64
		var errSum float64
		for ci, arch := range configs {
			model, err := gpu.NewModel(arch)
			if err != nil {
				return nil, err
			}
			// Golden: measure every invocation on this configuration.
			golden := model.MeasureWorkload(p.w)
			total := stats.Sum(golden)
			// Sampled: measure only the representatives, reuse the plan.
			pred, err := p.plans[core.MethodSieve].Predict(cyclesFrom(golden))
			if err != nil {
				return nil, fmt.Errorf("%s @ %s: %w", name, arch.Name, err)
			}
			if ci == 0 {
				baseGolden = total
			}
			point := DSEPoint{
				SMs:             arch.SMs,
				BandwidthGBs:    arch.DRAMBandwidthGBs,
				GoldenCycles:    total,
				PredictedCycles: pred.Cycles,
				Error:           relErr(pred.Cycles, total),
				SpeedupVsBase:   baseGolden / total,
			}
			res.Points = append(res.Points, point)
			errSum += point.Error
			if point.Error > res.MaxError {
				res.MaxError = point.Error
			}
		}
		res.MeanError = errSum / float64(len(res.Points))
		res.RankFidelity = rankFidelity(res.Points)
		out = append(out, res)
	}
	return out, nil
}

// rankFidelity is the fraction of design-point pairs ordered identically by
// golden and predicted cycles (pairwise concordance; ties count as
// concordant).
func rankFidelity(points []DSEPoint) float64 {
	if len(points) < 2 {
		return 1
	}
	concordant, pairs := 0, 0
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			pairs++
			g := sign(points[i].GoldenCycles - points[j].GoldenCycles)
			p := sign(points[i].PredictedCycles - points[j].PredictedCycles)
			if g == p || g == 0 || p == 0 {
				concordant++
			}
		}
	}
	return float64(concordant) / float64(pairs)
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// RenderDSE formats the design-space exploration study.
func RenderDSE(results []DSEResult) *Table {
	t := &Table{
		Title:  "Design-space exploration: Sieve representatives reused across configurations",
		Header: []string{"workload", "design points", "mean err", "max err", "rank fidelity"},
	}
	for _, res := range results {
		t.Rows = append(t.Rows, []string{
			res.Name,
			fmt.Sprintf("%d", len(res.Points)),
			pct(res.MeanError),
			pct(res.MaxError),
			pct(res.RankFidelity),
		})
	}
	t.Notes = append(t.Notes,
		"the plan is selected once from the microarchitecture-independent profile and",
		"evaluated on every swept configuration (SMs and DRAM bandwidth at 50%-150%)")
	return t
}
