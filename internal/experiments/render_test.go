package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/gpusampling/sieve/internal/core"
)

// Render functions are pure formatting; feed them synthetic rows and check
// structure so the figure plumbing is covered without re-running pipelines.

func renderToString(t *testing.T, tab *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tab.Print(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func syntheticEvaluations() []*Evaluation {
	ev := func(name, suite string, sieve, pks MethodEval) *Evaluation {
		sieve.Method, pks.Method = "sieve", "pks"
		return &Evaluation{Name: name, Suite: suite, Methods: []MethodEval{sieve, pks}}
	}
	return []*Evaluation{
		ev("alpha", "Cactus",
			MethodEval{Error: 0.01, Speedup: 100, CoV: 0.1, Units: 10},
			MethodEval{Error: 0.2, Speedup: 200, CoV: 0.5, Units: 5}),
		ev("gst", "Cactus",
			MethodEval{Error: 0.002, Speedup: 1.1, CoV: 0.3, Units: 30},
			MethodEval{Error: 0.01, Speedup: 1.2, CoV: 1.5, Units: 20}),
		ev("beta", "MLPerf",
			MethodEval{Error: 0.03, Speedup: 300, CoV: 0.2, Units: 40},
			MethodEval{Error: 0.5, Speedup: 150, CoV: 0.9, Units: 18}),
	}
}

func TestRenderAccuracyStructure(t *testing.T) {
	tab := RenderAccuracy("title", syntheticEvaluations(), "note")
	// Long form: 3 workloads × 2 methods + per-method average and max rows.
	if len(tab.Rows) != 3*2+2+2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := renderToString(t, tab)
	for _, want := range []string{"alpha", "methodology", "sieve", "pks", "average", "max", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered table:\n%s", want, out)
		}
	}
}

// TestRenderAccuracyMethodColumn checks the 4-method long form: every
// methodology is labeled in its own column, and interval-bearing strategies
// show their 2σ band.
func TestRenderAccuracyMethodColumn(t *testing.T) {
	evs := []*Evaluation{{
		Name: "alpha", Suite: "Cactus",
		Methods: []MethodEval{
			{Method: "sieve", Error: 0.01, Units: 10},
			{Method: "pks", Error: 0.2, Units: 5},
			{Method: "twophase", Error: 0.02, Units: 20,
				Interval: &core.ErrorInterval{Low: -0.05, High: 0.05}},
			{Method: "rss", Error: 0.03, Units: 10,
				Interval: &core.ErrorInterval{Mean: 0.01, Low: -0.01, High: 0.03, Resamples: 16}},
		},
	}}
	tab := RenderAccuracy("title", evs, "note")
	if len(tab.Rows) != 4+4+4 { // 1 workload × 4 methods + averages + maxes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := renderToString(t, tab)
	for _, want := range []string{"twophase", "rss", "[-5.00%, +5.00%]", "[-1.00%, +3.00%]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered table:\n%s", want, out)
		}
	}
}

func TestRenderFig4Structure(t *testing.T) {
	tab := RenderFig4(syntheticEvaluations())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "0.500") {
		t.Fatal("CoV values missing")
	}
}

func TestRenderFig5Structure(t *testing.T) {
	rows := []SelectionRow{
		{Name: "a", First: 0.2, Random: 0.1, Centroid: 0.05, Sieve: 0.01},
		{Name: "b", First: 0.4, Random: 0.2, Centroid: 0.10, Sieve: 0.02},
	}
	tab := RenderFig5(rows)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := renderToString(t, tab)
	if !strings.Contains(out, "30.00%") { // average of First
		t.Fatalf("averages missing:\n%s", out)
	}
}

func TestRenderFig6ExcludesGst(t *testing.T) {
	tab, err := RenderFig6(syntheticEvaluations())
	if err != nil {
		t.Fatal(err)
	}
	// Harmonic mean over alpha+beta only: HM(100, 300) = 150.
	out := renderToString(t, tab)
	if !strings.Contains(out, "150.0x") {
		t.Fatalf("gst not excluded from harmonic mean:\n%s", out)
	}
}

func TestRenderFig6ErrorsOnAllGst(t *testing.T) {
	evs := []*Evaluation{{Name: "gst", Methods: []MethodEval{
		{Method: "sieve", Speedup: 1}, {Method: "pks", Speedup: 1}}}}
	if _, err := RenderFig6(evs); err == nil {
		t.Fatal("want error when no workload remains for the mean")
	}
}

func TestRenderFig2Structure(t *testing.T) {
	rows := []TierRow{
		{Name: "w1", Fractions: [][3]float64{{0.5, 0.3, 0.2}, {0.5, 0.4, 0.1}, {0.5, 0.5, 0}}},
		{Name: "w2", Fractions: [][3]float64{{0.2, 0.2, 0.6}, {0.2, 0.6, 0.2}, {0.2, 0.8, 0}}},
	}
	tab := RenderFig2(rows)
	if len(tab.Rows) != 3 { // 2 workloads + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := renderToString(t, tab)
	if !strings.Contains(out, "35.00%") { // avg Tier-1 at θ=0.1
		t.Fatalf("tier averages missing:\n%s", out)
	}
}

func TestRenderFig10Structure(t *testing.T) {
	points := []ThetaPoint{
		{Theta: 0.1, AvgError: 0.01, AvgSpeedupHM: 50},
		{Theta: 1.0, AvgError: 0.05, AvgSpeedupHM: 160},
	}
	tab := RenderFig10(points)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "160.0x") {
		t.Fatal("speedups missing")
	}
}

func TestRenderWarmupStructure(t *testing.T) {
	rows := []WarmupRow{
		{Name: "a", PerfectWarmupError: 0.01, ColdSampleError: 0.05, ColdPenalty: 1.1},
	}
	tab := RenderWarmup(rows)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "1.10x") {
		t.Fatal("penalty missing")
	}
}

func TestRenderSimStudyStructure(t *testing.T) {
	rows := []SimStudyRow{{
		Name: "a", Representatives: 3, WarpInstrs: 1000,
		SerialWall: 100 * time.Millisecond, ParallelWall: 40 * time.Millisecond,
		LongestSMCycles: 5000, TotalGPUCycles: 1e6,
	}}
	tab := RenderSimStudy(rows)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := renderToString(t, tab)
	if !strings.Contains(out, "5000") || strings.Contains(out, "100ms") {
		t.Fatalf("sim fields missing or wall time not split off:\n%s", out)
	}
	wall := renderToString(t, RenderSimWall(rows))
	if !strings.Contains(wall, "100ms") || !strings.Contains(wall, "40ms") {
		t.Fatalf("wall times missing:\n%s", wall)
	}
}

func TestRenderDSEStructure(t *testing.T) {
	results := []DSEResult{{
		Name: "a", Points: make([]DSEPoint, 11),
		MeanError: 0.01, MaxError: 0.02, RankFidelity: 1,
	}}
	tab := RenderDSE(results)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "100.00%") {
		t.Fatal("rank fidelity missing")
	}
}

func TestRenderScalingStructure(t *testing.T) {
	rows := []ScalingRow{{
		Name:   "a",
		Points: []ScalingPoint{{Scale: 0.01, Invocations: 100, Strata: 5, Error: 0.01, Speedup: 20}},
	}}
	tab := RenderScaling(rows)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "20.0x") {
		t.Fatal("speedup missing")
	}
}

func TestRenderBaselinesStructure(t *testing.T) {
	rows := []BaselineRow{{Name: "a", Sieve: 0.01, PKS: 0.2, TBPoint: 0.3}}
	tab := RenderBaselines(rows)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRenderXValStructure(t *testing.T) {
	rows := []XValRow{{Name: "a", Representatives: 9, Spearman: 0.7}}
	tab := RenderXVal(rows)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(renderToString(t, tab), "0.700") {
		t.Fatal("spearman missing")
	}
}
