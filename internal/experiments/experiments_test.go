package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/workloads"
)

// testCfg keeps test runs small; the floor in the generator means tiny
// workloads are still exercised in full.
var testCfg = Config{Scale: 0.01}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != DefaultScale || c.Theta == 0 || c.Seed == 0 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != cudamodel.NumCharacteristics {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	sieveCount := 0
	for _, row := range tab.Rows {
		if row[1] != "x" {
			t.Fatalf("PKS must collect every metric, row %v", row)
		}
		if row[2] == "x" {
			sieveCount++
			if row[0] != "instruction_count" {
				t.Fatalf("Sieve collects %s", row[0])
			}
		}
	}
	if sieveCount != 1 {
		t.Fatalf("Sieve collects %d metrics, want 1", sieveCount)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x", "y"}},
		Notes:  []string{"note"},
	}
	var buf bytes.Buffer
	if err := tab.Print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "x", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestEvaluateWorkloadBasics(t *testing.T) {
	ev, err := NewRunner(testCfg).evaluate("gru")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "gru" || ev.Suite != workloads.SuiteCactus {
		t.Fatalf("identity %s/%s", ev.Suite, ev.Name)
	}
	if ev.SieveError < 0 || ev.PKSError < 0 {
		t.Fatal("negative errors")
	}
	if ev.SieveSpeedup <= 1 || ev.PKSSpeedup <= 1 {
		t.Fatalf("speedups must exceed 1: %g, %g", ev.SieveSpeedup, ev.PKSSpeedup)
	}
	if ev.SieveStrata < ev.Kernels {
		t.Fatalf("Sieve has %d strata for %d kernels; at least one per kernel required", ev.SieveStrata, ev.Kernels)
	}
	if ev.PKSClusters < 1 || ev.PKSClusters > 20 {
		t.Fatalf("PKS clusters = %d", ev.PKSClusters)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(testCfg)
	a, err := r.get("lbm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.get("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runner did not memoize")
	}
	if names := r.sortedCacheNames(); len(names) != 1 || names[0] != "lbm" {
		t.Fatalf("cache = %v", names)
	}
}

func TestRunnerWarmParallel(t *testing.T) {
	r := NewRunner(testCfg)
	if err := r.Warm([]string{"lbm", "histo", "dwt2d"}, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(r.sortedCacheNames()); got != 3 {
		t.Fatalf("warmed %d workloads", got)
	}
	if err := r.Warm([]string{"no-such-workload"}, 1); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

// TestHeadlineShape is the integration check for the paper's central claim
// (Fig. 3): on the challenging suites Sieve is substantially more accurate
// than PKS, while both are accurate on a traditional workload.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	r := NewRunner(Config{Scale: 0.02})
	challenging := []string{"lmc", "dcg", "nst", "spt", "rnnt"}
	evs, err := r.Evaluations(challenging)
	if err != nil {
		t.Fatal(err)
	}
	var sieveSum, pksSum float64
	for _, ev := range evs {
		sieveSum += ev.SieveError
		pksSum += ev.PKSError
		if ev.SieveCoV >= ev.PKSCoV {
			t.Errorf("%s: Sieve stratum CoV %.3f not below PKS cluster CoV %.3f",
				ev.Name, ev.SieveCoV, ev.PKSCoV)
		}
	}
	n := float64(len(evs))
	sieveAvg, pksAvg := sieveSum/n, pksSum/n
	if sieveAvg > 0.05 {
		t.Fatalf("Sieve average error %.2f%% exceeds 5%%", 100*sieveAvg)
	}
	if pksAvg < 3*sieveAvg {
		t.Fatalf("PKS average error %.2f%% not substantially above Sieve %.2f%%",
			100*pksAvg, 100*sieveAvg)
	}
	// A traditional workload: both methods accurate.
	lbm, err := r.evaluate("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if lbm.SieveError > 0.05 || lbm.PKSError > 0.1 {
		t.Fatalf("traditional workload should be easy: sieve %.2f%%, pks %.2f%%",
			100*lbm.SieveError, 100*lbm.PKSError)
	}
}

func TestFig2FractionsSumToOne(t *testing.T) {
	r := NewRunner(testCfg)
	// Restrict to two representative workloads to keep the test quick.
	for _, name := range []string{"gms", "gst"} {
		p, err := r.get(name)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := coreTierFractions(p)
		if err != nil {
			t.Fatal(err)
		}
		for ti, f := range fr {
			if math.Abs(f[0]+f[1]+f[2]-1) > 1e-9 {
				t.Fatalf("%s θ=%g fractions %v do not sum to 1", name, Fig2Thetas[ti], f)
			}
		}
		if name == "gms" {
			// gms: essentially no Tier-3 even at the tightest threshold.
			if fr[0][2] > 0.05 {
				t.Fatalf("gms Tier-3 fraction %g at θ=0.1, expected ~0", fr[0][2])
			}
		}
		if name == "gst" {
			// gst: majority Tier-3 at θ=0.5.
			if fr[1][2] < 0.4 {
				t.Fatalf("gst Tier-3 fraction %g at θ=0.5, expected > 0.4", fr[1][2])
			}
		}
	}
}

func TestFig7ProfilingShape(t *testing.T) {
	r := NewRunner(testCfg)
	rows := []ProfilingRow{}
	for _, name := range []string{"gru", "gms", "bert", "resnet50"} {
		p, err := r.get(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, ProfilingRow{
			Name: name, Suite: p.w.Suite,
			FullSeconds: p.fullProfSec, InstrSeconds: p.sieveProfSec,
		})
	}
	var cactus, mlperf []float64
	for _, row := range rows {
		if row.Speedup() <= 1 {
			t.Fatalf("%s: profiling speedup %.2f not above 1", row.Name, row.Speedup())
		}
		if row.Suite == workloads.SuiteCactus {
			cactus = append(cactus, row.Speedup())
		} else {
			mlperf = append(mlperf, row.Speedup())
		}
	}
	// MLPerf's instruction-type diversity makes full profiling relatively
	// costlier (paper's Fig. 7 observation).
	if avg(mlperf) <= avg(cactus) {
		t.Fatalf("MLPerf profiling speedup %.1f should exceed Cactus %.1f", avg(mlperf), avg(cactus))
	}
	tab, err := RenderFig7(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(rows)+2 {
		t.Fatalf("rendered rows = %d", len(tab.Rows))
	}
}

func TestFig9ExcludesRflAndMLPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-arch integration test")
	}
	r := NewRunner(testCfg)
	rows, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 10 Cactus workloads minus rfl
		t.Fatalf("Fig. 9 has %d rows, want 9", len(rows))
	}
	for _, row := range rows {
		if row.Name == "rfl" {
			t.Fatal("rfl must be excluded per the paper")
		}
		if row.Golden <= 0 || row.Sieve <= 0 || row.PKS <= 0 {
			t.Fatalf("non-positive speedups in %+v", row)
		}
	}
	tab := RenderFig9(rows)
	if len(tab.Rows) != len(rows)+2 {
		t.Fatalf("rendered rows = %d", len(tab.Rows))
	}
}

func TestFig10ThetaTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("θ sweep integration test")
	}
	// Use a private sweep over two workloads for speed: tight θ must not be
	// less accurate than loose θ, and speedup must not grow when tightening.
	r := NewRunner(testCfg)
	type point struct{ err, sp float64 }
	sweep := func(theta float64) point {
		var errSum float64
		var sps []float64
		for _, name := range []string{"lmc", "rnnt"} {
			p, err := r.get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coreStratifyAt(p, theta)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := res.Predict(cyclesFrom(p.golden))
			if err != nil {
				t.Fatal(err)
			}
			errSum += relErr(pred.Cycles, p.total)
			sp, err := res.Speedup(p.golden)
			if err != nil {
				t.Fatal(err)
			}
			sps = append(sps, sp)
		}
		return point{err: errSum / 2, sp: avg(sps)}
	}
	tight := sweep(0.1)
	loose := sweep(1.0)
	if tight.err > loose.err+0.02 {
		t.Fatalf("θ=0.1 error %.3f clearly above θ=1.0 error %.3f", tight.err, loose.err)
	}
	if tight.sp > loose.sp*1.5 {
		t.Fatalf("tightening θ should not raise speedup: %.1f vs %.1f", tight.sp, loose.sp)
	}
}

// coreTierFractions and coreStratifyAt are tiny indirections so the tests
// exercise the same code paths the figures use.
func coreTierFractions(p *prepared) ([][3]float64, error) {
	return tierFractionsForTest(p)
}

func tierFractionsForTest(p *prepared) ([][3]float64, error) {
	return coreTierFractionsImpl(p)
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func coreTierFractionsImpl(p *prepared) ([][3]float64, error) {
	return core.TierFractions(p.sieveProfile, Fig2Thetas)
}

func coreStratifyAt(p *prepared, theta float64) (*core.Result, error) {
	return core.StratifyContext(context.Background(), p.sieveProfile, core.Options{Theta: theta})
}

// TestStreamConfigMatchesMaterialized: with the default (exact-at-scale)
// reservoir, routing the experiments through the streaming pipeline must
// reproduce the materialized plan byte for byte, so every figure and table
// is unchanged under -stream.
func TestStreamConfigMatchesMaterialized(t *testing.T) {
	spec, err := workloads.ByName("gru")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := prepare(spec, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := testCfg
	streamCfg.Stream = true
	streamed, err := prepare(spec, streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.sieve.Sampled {
		t.Fatal("default experiment reservoir must keep the plan exact")
	}
	if !reflect.DeepEqual(streamed.sieve.Strata, exact.sieve.Strata) {
		t.Fatal("streaming experiments produced a different plan")
	}
	evExact, err := NewRunner(testCfg).evaluate(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	evStream, err := NewRunner(streamCfg).evaluate(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evExact, evStream) {
		t.Fatalf("evaluations diverge:\n exact  %+v\n stream %+v", evExact, evStream)
	}
}
