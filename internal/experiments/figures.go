package experiments

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/stats"
	"github.com/gpusampling/sieve/internal/workloads"
)

// --- Table I -----------------------------------------------------------------

// Table1 reproduces the workload inventory: suite, workload, kernel count
// and invocation count, both the paper's full-scale numbers and the counts
// generated at the runner's scale.
func (r *Runner) Table1() (*Table, error) {
	t := &Table{
		Title:  "Table I: workloads (paper full-scale counts; generated at scale shown)",
		Header: []string{"suite", "workload", "kernels", "invocations(paper)", fmt.Sprintf("invocations(scale %g)", r.cfg.Scale)},
	}
	for _, spec := range workloads.Catalog() {
		p, err := r.get(spec.Name)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			spec.Suite, spec.Name,
			fmt.Sprintf("%d", spec.Kernels),
			fmt.Sprintf("%d", spec.FullInvocations),
			fmt.Sprintf("%d", p.w.NumInvocations()),
		})
	}
	return t, nil
}

// --- Table II ----------------------------------------------------------------

// Table2 reproduces the profiled-characteristics comparison: the twelve PKS
// metrics versus Sieve's single one.
func Table2() *Table {
	t := &Table{
		Title:  "Table II: execution characteristics profiled by PKS versus Sieve",
		Header: []string{"execution characteristic", "PKS", "Sieve"},
	}
	for _, name := range cudamodel.CharacteristicNames() {
		sieve := ""
		if name == "instruction_count" {
			sieve = "x"
		}
		t.Rows = append(t.Rows, []string{name, "x", sieve})
	}
	return t
}

// --- Fig. 2 ------------------------------------------------------------------

// Fig2Thetas are the thresholds the paper plots in Fig. 2.
var Fig2Thetas = []float64{0.1, 0.5, 1.0}

// TierRow is one workload's tier mix at every Fig. 2 threshold.
type TierRow struct {
	Name string
	// Fractions[i] holds the Tier-1/2/3 invocation fractions at
	// Fig2Thetas[i].
	Fractions [][3]float64
}

// Fig2 reproduces the tier-fraction experiment over Cactus and MLPerf.
func (r *Runner) Fig2() ([]TierRow, error) {
	var rows []TierRow
	for _, name := range challengingNames() {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		fr, err := core.TierFractions(p.sieveProfile, Fig2Thetas)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TierRow{Name: name, Fractions: fr})
	}
	return rows, nil
}

// RenderFig2 formats Fig. 2 rows.
func RenderFig2(rows []TierRow) *Table {
	t := &Table{
		Title:  "Fig. 2: fraction of kernel invocations per tier vs threshold θ",
		Header: []string{"workload"},
	}
	for _, theta := range Fig2Thetas {
		t.Header = append(t.Header,
			fmt.Sprintf("T1(θ=%.1f)", theta),
			fmt.Sprintf("T2(θ=%.1f)", theta),
			fmt.Sprintf("T3(θ=%.1f)", theta))
	}
	var avg [3][3]float64
	for _, row := range rows {
		cells := []string{row.Name}
		for ti, f := range row.Fractions {
			for tier := 0; tier < 3; tier++ {
				cells = append(cells, pct(f[tier]))
				avg[ti][tier] += f[tier] / float64(len(rows))
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	cells := []string{"average"}
	for ti := range Fig2Thetas {
		for tier := 0; tier < 3; tier++ {
			cells = append(cells, pct(avg[ti][tier]))
		}
	}
	t.Rows = append(t.Rows, cells)
	t.Notes = append(t.Notes, "paper: ~41% Tier-1; Tier-2 22%/42%/49% at θ=0.1/0.5/1.0; gms+lmr all Tier-1/2; gst >50% Tier-3")
	return t
}

// --- Fig. 3 / Fig. 8 (accuracy) -----------------------------------------------

// Fig3 reproduces the headline accuracy comparison on Cactus and MLPerf.
func (r *Runner) Fig3() ([]*Evaluation, error) {
	return r.Evaluations(challengingNames())
}

// Fig8 reproduces the accuracy comparison on the traditional suites.
func (r *Runner) Fig8() ([]*Evaluation, error) {
	return r.Evaluations(traditionalNames())
}

// RenderAccuracy formats an accuracy comparison (Fig. 3 and Fig. 8) in long
// form: one row per (workload, methodology), labeled by an explicit
// methodology column rather than positional per-method headers, so the table
// stays readable however many strategies an evaluation carries. Strategies
// that quantify their own uncertainty additionally show their 2σ interval.
// Per-method average and max rows close the table.
func RenderAccuracy(title string, evs []*Evaluation, paperNote string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"workload", "suite", "methodology", "error", "units", "2σ interval"},
	}
	// Aggregate per methodology, in order of first appearance.
	var order []string
	sums := make(map[string]float64)
	maxs := make(map[string]float64)
	counts := make(map[string]int)
	interval := func(me MethodEval) string {
		if me.Interval == nil {
			return "-"
		}
		return fmt.Sprintf("[%+.2f%%, %+.2f%%]", 100*me.Interval.Low, 100*me.Interval.High)
	}
	for _, ev := range evs {
		for _, me := range ev.methodRows() {
			t.Rows = append(t.Rows, []string{
				ev.Name, ev.Suite, me.Method, pct(me.Error), fmt.Sprintf("%d", me.Units), interval(me),
			})
			if counts[me.Method] == 0 {
				order = append(order, me.Method)
			}
			counts[me.Method]++
			sums[me.Method] += me.Error
			maxs[me.Method] = max(maxs[me.Method], me.Error)
		}
	}
	for _, m := range order {
		t.Rows = append(t.Rows, []string{"average", "", m, pct(sums[m] / float64(counts[m])), "", ""})
	}
	for _, m := range order {
		t.Rows = append(t.Rows, []string{"max", "", m, pct(maxs[m]), "", ""})
	}
	t.Notes = append(t.Notes, paperNote)
	return t
}

// --- Fig. 4 (dispersion) -------------------------------------------------------

// RenderFig4 formats the within-cluster cycle-count CoV comparison.
func RenderFig4(evs []*Evaluation) *Table {
	t := &Table{
		Title:  "Fig. 4: cycle-count CoV within clusters/strata (invocation-weighted)",
		Header: []string{"workload", "Sieve CoV", "PKS CoV"},
	}
	var sSum, pSum float64
	for _, ev := range evs {
		t.Rows = append(t.Rows, []string{ev.Name, fmt.Sprintf("%.3f", ev.SieveCoV), fmt.Sprintf("%.3f", ev.PKSCoV)})
		sSum += ev.SieveCoV
		pSum += ev.PKSCoV
	}
	n := float64(len(evs))
	t.Rows = append(t.Rows, []string{"average", fmt.Sprintf("%.3f", sSum/n), fmt.Sprintf("%.3f", pSum/n)})
	t.Notes = append(t.Notes, "paper: Sieve avg 0.09 (max 0.2 lmc); PKS avg 0.57 (max 3.25 dcg)")
	return t
}

// --- Fig. 5 (PKS selection policies) -------------------------------------------

// SelectionRow is one workload's PKS error under each representative policy.
type SelectionRow struct {
	Name     string
	First    float64
	Random   float64
	Centroid float64
	Sieve    float64 // Sieve's error, the reference line
}

// Fig5 reproduces the representative-selection sensitivity study: PKS error
// with first-chronological, random, and centroid representatives.
func (r *Runner) Fig5() ([]SelectionRow, error) {
	var rows []SelectionRow
	for _, name := range challengingNames() {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		row := SelectionRow{Name: name}
		src := cyclesFrom(p.golden)
		sievePred, err := p.sieve.Predict(src)
		if err != nil {
			return nil, err
		}
		row.Sieve = relErr(sievePred.Cycles, p.total)
		for _, pol := range []struct {
			policy pks.Policy
			dst    *float64
		}{
			{pks.SelectFirst, &row.First},
			{pks.SelectRandom, &row.Random},
			{pks.SelectCentroid, &row.Centroid},
		} {
			res := p.pks
			if pol.policy != pks.SelectFirst {
				res, err = pks.SelectContext(r.cfg.ctx(), p.features, p.golden, pks.Options{Seed: r.cfg.Seed, Selection: pol.policy, Parallelism: r.cfg.Parallelism})
				if err != nil {
					return nil, fmt.Errorf("%s: pks %v: %w", name, pol.policy, err)
				}
			}
			pred, err := res.PredictCycles(src)
			if err != nil {
				return nil, err
			}
			*pol.dst = relErr(pred, p.total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig5 formats the selection-policy comparison.
func RenderFig5(rows []SelectionRow) *Table {
	t := &Table{
		Title:  "Fig. 5: PKS error by representative selection policy (Sieve shown for reference)",
		Header: []string{"workload", "PKS-first", "PKS-random", "PKS-centroid", "Sieve"},
	}
	var f, rr, c, s float64
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.Name, pct(row.First), pct(row.Random), pct(row.Centroid), pct(row.Sieve)})
		f += row.First
		rr += row.Random
		c += row.Centroid
		s += row.Sieve
	}
	n := float64(len(rows))
	t.Rows = append(t.Rows, []string{"average", pct(f / n), pct(rr / n), pct(c / n), pct(s / n)})
	t.Notes = append(t.Notes, "paper: first 16.5% avg; random 6.8%; centroid 3.9%; none closes the gap with Sieve (1.2%)")
	return t
}

// --- Fig. 6 (speedup) -----------------------------------------------------------

// RenderFig6 formats the simulation-speedup comparison; gst is excluded from
// the harmonic means, as in the paper.
func RenderFig6(evs []*Evaluation) (*Table, error) {
	t := &Table{
		Title:  "Fig. 6: simulation speedup (log-scale quantity; gst excluded from means)",
		Header: []string{"workload", "Sieve speedup", "PKS speedup", "Sieve reps", "PKS reps"},
	}
	var sieveSp, pksSp []float64
	for _, ev := range evs {
		t.Rows = append(t.Rows, []string{
			ev.Name, times(ev.SieveSpeedup), times(ev.PKSSpeedup),
			fmt.Sprintf("%d", ev.SieveStrata), fmt.Sprintf("%d", ev.PKSClusters),
		})
		if ev.Name == "gst" {
			continue
		}
		sieveSp = append(sieveSp, ev.SieveSpeedup)
		pksSp = append(pksSp, ev.PKSSpeedup)
	}
	sHM, err := stats.HarmonicMean(sieveSp)
	if err != nil {
		return nil, err
	}
	pHM, err := stats.HarmonicMean(pksSp)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"harmonic mean (no gst)", times(sHM), times(pHM), "", ""})
	t.Notes = append(t.Notes,
		"paper: Sieve 922x vs PKS 1272x harmonic mean at full invocation counts; speedup grows",
		"~linearly with profiled invocations, so scaled runs sit proportionally lower")
	return t, nil
}

// --- Fig. 7 (profiling time) ------------------------------------------------------

// ProfilingRow is one workload's modeled profiling cost under each toolchain.
type ProfilingRow struct {
	Name         string
	Suite        string
	FullSeconds  float64 // 12-metric (Nsight-style), feeds PKS
	InstrSeconds float64 // instruction-count-only (NVBit-style), feeds Sieve
}

// Speedup returns the profiling-time ratio full/instr.
func (p ProfilingRow) Speedup() float64 { return p.FullSeconds / p.InstrSeconds }

// Fig7 reproduces the profiling-time experiment over Cactus and MLPerf.
func (r *Runner) Fig7() ([]ProfilingRow, error) {
	var rows []ProfilingRow
	for _, name := range challengingNames() {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ProfilingRow{
			Name:         name,
			Suite:        p.w.Suite,
			FullSeconds:  p.fullProfSec,
			InstrSeconds: p.sieveProfSec,
		})
	}
	return rows, nil
}

// RenderFig7 formats the profiling-time comparison.
func RenderFig7(rows []ProfilingRow) (*Table, error) {
	t := &Table{
		Title:  "Fig. 7: profiling time, PKS (12 metrics) vs Sieve (instruction count)",
		Header: []string{"workload", "PKS profiling", "Sieve profiling", "speedup"},
	}
	var speedups []float64
	var maxSp float64
	for _, row := range rows {
		sp := row.Speedup()
		speedups = append(speedups, sp)
		maxSp = max(maxSp, sp)
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.0fs", row.FullSeconds),
			fmt.Sprintf("%.0fs", row.InstrSeconds),
			times(sp),
		})
	}
	hm, err := stats.HarmonicMean(speedups)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"harmonic mean", "", "", times(hm)})
	t.Rows = append(t.Rows, []string{"max", "", "", times(maxSp)})
	t.Notes = append(t.Notes, "paper: 8x harmonic-mean speedup, up to 98x; larger for MLPerf (more instruction types -> more Nsight passes)")
	return t, nil
}

// --- Fig. 9 (cross-architecture relative accuracy) --------------------------------

// CrossArchRow compares the Ampere-vs-Turing speedup predicted by each method
// with the golden measurement.
type CrossArchRow struct {
	Name string
	// Golden, Sieve and PKS are the Ampere-over-Turing wall-clock speedups.
	Golden, Sieve, PKS float64
}

// SieveError returns Sieve's relative speedup-prediction error.
func (c CrossArchRow) SieveError() float64 { return relErr(c.Sieve, c.Golden) }

// PKSError returns PKS's relative speedup-prediction error.
func (c CrossArchRow) PKSError() float64 { return relErr(c.PKS, c.Golden) }

// Fig9 reproduces the relative-accuracy experiment: predicting the
// performance difference between the Ampere and Turing parts. Per the paper,
// the MLPerf workloads and Cactus' rfl are excluded (they could not be run on
// the Turing system).
func (r *Runner) Fig9() ([]CrossArchRow, error) {
	turing, err := gpu.NewModel(gpu.Turing())
	if err != nil {
		return nil, err
	}
	ampere, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		return nil, err
	}
	specs, err := workloads.BySuite(workloads.SuiteCactus)
	if err != nil {
		return nil, err
	}
	var rows []CrossArchRow
	for _, spec := range specs {
		if spec.Name == "rfl" {
			continue // paper: rfl could not run on the RTX 2080 Ti
		}
		p, err := r.get(spec.Name)
		if err != nil {
			return nil, err
		}
		turingCycles := turing.MeasureWorkload(p.w)
		goldenA := ampere.Seconds(p.total)
		goldenT := turing.Seconds(stats.Sum(turingCycles))

		sievePredA, err := p.sieve.Predict(cyclesFrom(p.golden))
		if err != nil {
			return nil, err
		}
		sievePredT, err := p.sieve.Predict(cyclesFrom(turingCycles))
		if err != nil {
			return nil, err
		}
		pksPredA, err := p.pks.PredictCycles(cyclesFrom(p.golden))
		if err != nil {
			return nil, err
		}
		pksPredT, err := p.pks.PredictCycles(cyclesFrom(turingCycles))
		if err != nil {
			return nil, err
		}
		rows = append(rows, CrossArchRow{
			Name:   spec.Name,
			Golden: goldenT / goldenA,
			Sieve:  turing.Seconds(sievePredT.Cycles) / ampere.Seconds(sievePredA.Cycles),
			PKS:    turing.Seconds(pksPredT) / ampere.Seconds(pksPredA),
		})
	}
	return rows, nil
}

// RenderFig9 formats the cross-architecture comparison.
func RenderFig9(rows []CrossArchRow) *Table {
	t := &Table{
		Title:  "Fig. 9: Ampere (RTX 3080) speedup over Turing (RTX 2080 Ti)",
		Header: []string{"workload", "golden", "Sieve", "PKS", "Sieve err", "PKS err"},
	}
	var sSum, pSum, sMax, pMax float64
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.3f", row.Golden),
			fmt.Sprintf("%.3f", row.Sieve),
			fmt.Sprintf("%.3f", row.PKS),
			pct(row.SieveError()),
			pct(row.PKSError()),
		})
		sSum += row.SieveError()
		pSum += row.PKSError()
		sMax = max(sMax, row.SieveError())
		pMax = max(pMax, row.PKSError())
	}
	n := float64(len(rows))
	t.Rows = append(t.Rows, []string{"average", "", "", "", pct(sSum / n), pct(pSum / n)})
	t.Rows = append(t.Rows, []string{"max", "", "", "", pct(sMax), pct(pMax)})
	t.Notes = append(t.Notes, "paper: Sieve 1.5% avg (max 3.5% dcg); PKS 9.8% avg (12.1% gru, 23.5% nst, 40.3% spt)")
	return t
}

// --- Fig. 10 (θ sensitivity) --------------------------------------------------------

// ThetaPoint is the average error and speedup at one θ value.
type ThetaPoint struct {
	Theta        float64
	AvgError     float64
	AvgSpeedupHM float64
}

// Fig10Thetas is the θ sweep of the sensitivity experiment.
var Fig10Thetas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Fig10 reproduces the θ-sensitivity study: Sieve's average prediction error
// and harmonic-mean speedup across Cactus and MLPerf as θ varies. gst is
// excluded from the speedup mean, as in Fig. 6.
func (r *Runner) Fig10() ([]ThetaPoint, error) {
	var out []ThetaPoint
	for _, theta := range Fig10Thetas {
		var errSum float64
		var speedups []float64
		names := challengingNames()
		for _, name := range names {
			p, err := r.get(name)
			if err != nil {
				return nil, err
			}
			res, err := r.cfg.stratify(p.sieveProfile, theta)
			if err != nil {
				return nil, err
			}
			pred, err := res.Predict(cyclesFrom(p.golden))
			if err != nil {
				return nil, err
			}
			errSum += relErr(pred.Cycles, p.total)
			if name == "gst" {
				continue
			}
			sp, err := res.Speedup(p.golden)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, sp)
		}
		hm, err := stats.HarmonicMean(speedups)
		if err != nil {
			return nil, err
		}
		out = append(out, ThetaPoint{
			Theta:        theta,
			AvgError:     errSum / float64(len(names)),
			AvgSpeedupHM: hm,
		})
	}
	return out, nil
}

// RenderFig10 formats the θ sweep.
func RenderFig10(points []ThetaPoint) *Table {
	t := &Table{
		Title:  "Fig. 10: Sieve prediction error vs speedup as a function of θ",
		Header: []string{"theta", "avg error", "harmonic-mean speedup"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", p.Theta), pct(p.AvgError), times(p.AvgSpeedupHM),
		})
	}
	t.Notes = append(t.Notes, "paper: θ<0.5 -> error <1.6%; θ in [0.6,0.8] -> ~3%; θ=1.0 -> 4.8%; speedup much less sensitive")
	return t
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
