package sampler_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/workloads"
)

// testProfile generates a small but realistic profile — rows, PKS feature
// vectors and golden cycles — from the workload catalog.
func testProfile(tb testing.TB, name string, scale float64) *sampler.Profile {
	tb.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		tb.Fatalf("ByName(%s): %v", name, err)
	}
	w, err := workloads.Generate(spec, scale)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		tb.Fatalf("NewModel: %v", err)
	}
	icProf, err := profiler.InstructionCounts(w, hw)
	if err != nil {
		tb.Fatalf("instruction-count profile: %v", err)
	}
	fullProf, err := profiler.Full(w, hw)
	if err != nil {
		tb.Fatalf("full profile: %v", err)
	}
	return &sampler.Profile{Rows: icProf.Rows(), Features: fullProf.Features(), GoldenCycles: hw.MeasureWorkload(w)}
}

// TestCheckMethodNames: the empty name is sieve, and an unknown name gets
// the error text sieved sends as a 400 body, listing the four methods.
func TestCheckMethodNames(t *testing.T) {
	if sampler.Canonical("") != "sieve" {
		t.Errorf("Canonical(\"\") = %q, want sieve", sampler.Canonical(""))
	}
	for _, name := range append(sampler.Names(), "") {
		if err := sampler.Check(name, false); err != nil {
			t.Errorf("Check(%q): %v", name, err)
		}
	}
	const want = `sampler: unknown method "bogus" (registered: [pks rss sieve twophase])`
	if err := sampler.Check("bogus", false); err == nil || err.Error() != want {
		t.Errorf("Check(bogus) = %v, want %s", err, want)
	}
	if err := sampler.Check("bogus", true); err == nil || err.Error() != want {
		t.Errorf("Check(bogus, stream) = %v, want %s", err, want)
	}
}

// TestSieveIdentity pins the sieve method's contract: a plan built through
// Run is identical — every field, including the unexported prediction
// indexes — to one built by calling core.StratifyContext directly, so plain
// core golden fixtures and cache keys keep working without re-goldening.
func TestSieveIdentity(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	direct, err := core.StratifyContext(context.Background(), p.Rows, core.Options{})
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	viaRun, err := sampler.Run(context.Background(), "sieve", p, sampler.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(direct, viaRun) {
		t.Fatalf("Run's sieve plan differs from direct core.StratifyContext plan")
	}
	if viaRun.Method != "" {
		t.Fatalf("sieve plan Method = %q, want empty (wire back-compat)", viaRun.Method)
	}
	if viaRun.Interval != nil {
		t.Fatalf("sieve plan carries an interval; default method must not")
	}
}

// TestPKSIdentity pins the PKS side: the pks method's strata are
// exactly pks.SelectContext's clusters (same members, same representatives,
// same order) and the count-weighted plan predicts the PKS estimator's cycle
// total, Σ cluster size × representative cycles, kept here as a test-local
// reference.
func TestPKSIdentity(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	popts := pks.Options{Seed: 7}
	legacy, err := pks.SelectContext(context.Background(), p.Features, p.GoldenCycles, popts)
	if err != nil {
		t.Fatalf("legacy pks: %v", err)
	}
	plan, err := sampler.Run(context.Background(), "pks", p, sampler.Options{PKS: popts})
	if err != nil {
		t.Fatalf("pks via Run: %v", err)
	}
	if plan.Method != "pks" || !plan.CountWeighted {
		t.Fatalf("plan method/countweighted = %q/%v, want pks/true", plan.Method, plan.CountWeighted)
	}
	if len(plan.Strata) != len(legacy.Clusters) {
		t.Fatalf("%d strata vs %d clusters", len(plan.Strata), len(legacy.Clusters))
	}
	for ci, c := range legacy.Clusters {
		members := make([]int, len(c.Invocations))
		for j, pos := range c.Invocations {
			members[j] = p.Rows[pos].Index
		}
		if !reflect.DeepEqual(plan.Strata[ci].Invocations, members) {
			t.Fatalf("cluster %d members differ: %v vs %v", ci, plan.Strata[ci].Invocations, members)
		}
		if plan.Strata[ci].Representative != p.Rows[c.Representative].Index {
			t.Fatalf("cluster %d representative %d vs %d", ci, plan.Strata[ci].Representative, c.Representative)
		}
	}
	cycles := func(i int) (float64, error) {
		if i < 0 || i >= len(p.GoldenCycles) {
			return 0, fmt.Errorf("invocation %d out of range", i)
		}
		return p.GoldenCycles[i], nil
	}
	var legacyCycles float64
	for _, c := range legacy.Clusters {
		v, err := cycles(c.Representative)
		if err != nil {
			t.Fatalf("reference predict: %v", err)
		}
		legacyCycles += float64(c.Size()) * v
	}
	pred, err := plan.Predict(cycles)
	if err != nil {
		t.Fatalf("plan predict: %v", err)
	}
	if pred.Cycles != legacyCycles {
		t.Fatalf("count-weighted prediction %g != legacy PKS prediction %g", pred.Cycles, legacyCycles)
	}
}

// TestSeedDeterminism: the seeded strategies must produce byte-identical
// plans for the same seed and different plans are allowed (not required)
// otherwise — the fixture is chosen so the seeds actually diverge.
func TestSeedDeterminism(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	for _, method := range []string{sampler.MethodTwoPhase, sampler.MethodRSS} {
		t.Run(method, func(t *testing.T) {
			a, err := sampler.Run(context.Background(), method, p, sampler.Options{Seed: 42})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := sampler.Run(context.Background(), method, p, sampler.Options{Seed: 42})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed produced different %s plans", method)
			}
			if a.Method != method {
				t.Fatalf("plan method %q, want %q", a.Method, method)
			}
			if a.Interval == nil {
				t.Fatalf("%s plan carries no error interval", method)
			}
			for _, v := range []float64{a.Interval.Mean, a.Interval.StdErr, a.Interval.Low, a.Interval.High} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s interval not finite: %+v", method, a.Interval)
				}
			}
			if got, err := sampler.Run(context.Background(), method, p, sampler.Options{Seed: 43}); err != nil {
				t.Fatalf("seed 43: %v", err)
			} else if got == nil {
				t.Fatalf("seed 43 returned nil plan")
			}
		})
	}
}

// TestTwophaseRefinesBasePlan: the Neyman second phase must spend its extra
// budget — the plan has strictly more strata than the base sieve plan on a
// fixture with Tier-3 dispersion — while still partitioning every
// invocation.
func TestTwophaseRefinesBasePlan(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	base, err := core.StratifyContext(context.Background(), p.Rows, core.Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	plan, err := sampler.Run(context.Background(), sampler.MethodTwoPhase, p, sampler.Options{Seed: 1})
	if err != nil {
		t.Fatalf("twophase: %v", err)
	}
	if plan.NumStrata() <= base.NumStrata() {
		t.Fatalf("twophase strata %d not finer than base %d", plan.NumStrata(), base.NumStrata())
	}
	if plan.NumInvocations() != len(p.Rows) {
		t.Fatalf("twophase covers %d of %d invocations", plan.NumInvocations(), len(p.Rows))
	}
	// Summation order differs between Assemble and StratifyContext, so allow
	// floating-point ULP noise but nothing more.
	if rel := math.Abs(plan.TotalInstructions-base.TotalInstructions) / base.TotalInstructions; rel > 1e-12 {
		t.Fatalf("total instructions drifted: %g vs %g (rel %g)", plan.TotalInstructions, base.TotalInstructions, rel)
	}
}

// TestPKSNeedsFeatures: the pks strategy fails loudly without its feature
// and golden side channels instead of planning from the wrong inputs.
func TestPKSNeedsFeatures(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	_, err := sampler.Run(context.Background(), "pks", &sampler.Profile{Rows: p.Rows}, sampler.Options{})
	if err == nil || !strings.Contains(err.Error(), "feature") {
		t.Fatalf("pks without features = %v, want feature-vector error", err)
	}
	_, err = sampler.Run(context.Background(), "pks", &sampler.Profile{Rows: p.Rows, Features: p.Features}, sampler.Options{})
	if err == nil || !strings.Contains(err.Error(), "golden") {
		t.Fatalf("pks without golden = %v, want golden-cycles error", err)
	}
}

// TestRunReturnsStrategyErrors: Run passes a strategy's error through as the
// strategy reported it, so the default method fails with exactly the error
// core.StratifyContext returns and errors.Is still finds the sentinel.
func TestRunReturnsStrategyErrors(t *testing.T) {
	p := testProfile(t, "lmc", 0.02)
	opts := core.Options{Theta: -1}
	_, direct := core.StratifyContext(context.Background(), p.Rows, opts)
	_, viaRun := sampler.Run(context.Background(), "sieve", p, sampler.Options{Core: opts})
	if direct == nil || viaRun == nil || viaRun.Error() != direct.Error() {
		t.Fatalf("Run error %v, want core's %v", viaRun, direct)
	}
	if !errors.Is(viaRun, core.ErrInvalidTheta) {
		t.Fatalf("Run error %v does not wrap core.ErrInvalidTheta", viaRun)
	}
}

// TestRunStreamProfiles: stream mode is an option of the sieve method only,
// and a profile sets exactly one of Rows and Source. Every other method is
// rejected with Check's message (from the root API too), a Source-only
// profile outside stream mode gets an error that says so instead of
// core's ErrEmptyProfile, and a profile with both is refused. Stream mode's
// default seed is the stream layer's, so a zero seed plans the reservoirs
// stream mode has always kept.
func TestRunStreamProfiles(t *testing.T) {
	ctx := context.Background()
	p := testProfile(t, "lmc", 0.02)
	for _, method := range sampler.Names() {
		if method == core.MethodSieve {
			continue
		}
		want := sampler.Check(method, true)
		if want == nil {
			t.Fatalf("Check(%s, true) accepts stream mode", method)
		}
		_, err := sieve.SampleMethodContext(ctx, method, p, sampler.Options{Stream: true})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s in stream mode: err = %v, want %v", method, err, want)
		}
	}
	if err := sampler.Check("", true); err != nil {
		t.Errorf("the default method must stream: %v", err)
	}

	_, err := sampler.Run(ctx, "sieve", &sampler.Profile{Source: core.SliceSource(p.Rows)}, sampler.Options{})
	if err == nil || errors.Is(err, core.ErrEmptyProfile) || !strings.Contains(err.Error(), "stream mode") {
		t.Errorf("Source-only profile without Stream: err = %v, want an error naming stream mode", err)
	}
	_, err = sampler.Run(ctx, "sieve", &sampler.Profile{Rows: p.Rows, Source: core.SliceSource(p.Rows)}, sampler.Options{Stream: true})
	if err == nil || !strings.Contains(err.Error(), "no Rows") {
		t.Errorf("profile with Rows and Source: err = %v, want a refusal", err)
	}

	if sampler.DefaultSeed != core.DefaultSeed {
		t.Fatalf("sampler.DefaultSeed %d != core.DefaultSeed %d: a zero seed would move every stream plan", sampler.DefaultSeed, core.DefaultSeed)
	}
	small := sampler.Options{Stream: true, ReservoirSize: 8}
	fromRows, err := sampler.Run(ctx, "sieve", &sampler.Profile{Rows: p.Rows}, small)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.StratifyStreamContext(ctx, core.SliceSource(p.Rows), core.StreamOptions{ReservoirSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !fromRows.Sampled || !reflect.DeepEqual(fromRows, direct) {
		t.Error("a zero-seed stream plan differs from core's default-seed stream plan")
	}
}

// TestMemoizedStratify: a memoized profile's Stratify computes one result
// per option tuple, whatever the parallelism, equal to core's; it keeps no
// error and holds one result, which another tuple replaces. It keeps
// nothing until admit agrees, asks no more once it has, and keeps nothing
// after drop. Every method plans the same bytes from the memoized profile
// as from a literal one.
func TestMemoizedStratify(t *testing.T) {
	ctx := context.Background()
	literal := testProfile(t, "lmc", 0.02)
	p := &sampler.Profile{Rows: literal.Rows, Features: literal.Features, GoldenCycles: literal.GoldenCycles}
	asks, room := 0, false
	var drop func()
	sampler.Memoize(p, func(d func()) bool {
		asks++
		drop = d
		return room
	})

	at := func(theta float64, par int) *core.Result {
		t.Helper()
		res, err := p.Stratify(ctx, core.Options{Theta: theta, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if at(0.4, 1) == at(0.4, 1) || sampler.Memoized(p) || asks != 2 {
		t.Fatalf("without room: memoized %v after %d asks; want two unshared results, false, 2", sampler.Memoized(p), asks)
	}
	room = true
	first := at(0.4, 1)
	if !sampler.Memoized(p) || asks != 3 {
		t.Fatalf("with room: memoized %v after %d asks; want true, 3", sampler.Memoized(p), asks)
	}
	if again := at(0.4, 4); again != first {
		t.Fatal("a second call with the same tuple at another parallelism stratified again")
	}
	want, err := core.StratifyContext(ctx, literal.Rows, core.Options{Theta: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("the memoized stratification differs from core's")
	}
	if _, err := p.Stratify(ctx, core.Options{Theta: -1}); err == nil {
		t.Fatal("invalid θ: no error")
	}
	if at(0.4, 1) != first {
		t.Fatal("a failed call replaced the memoized result")
	}
	a, errA := literal.Stratify(ctx, core.Options{})
	b, errB := literal.Stratify(ctx, core.Options{})
	if errA != nil || errB != nil || a == b {
		t.Fatalf("a literal profile shared a result between calls (errors %v, %v)", errA, errB)
	}

	second := at(0.5, 1)
	if second == first || at(0.5, 1) != second {
		t.Fatal("another tuple did not replace the memoized result")
	}
	if at(0.4, 1) == first {
		t.Fatal("a replaced result was kept")
	}
	if asks != 3 {
		t.Fatalf("the memo asked %d times, want 3: none after admission", asks)
	}

	for _, method := range sampler.Names() {
		opts := sampler.Options{Seed: 3}
		got, err := sampler.Run(ctx, method, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sampler.Run(ctx, method, literal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the memoized profile plans differently from a literal one", method)
		}
	}

	drop()
	if sampler.Memoized(p) || at(0.4, 1) == at(0.4, 1) || asks != 3 {
		t.Fatalf("after drop: memoized %v, %d asks; want false, unshared results, 3", sampler.Memoized(p), asks)
	}
}

// BenchmarkSamplerPlan compares plan-construction cost across the four
// methodologies on the same profile (make bench-sampler →
// BENCH_sampler.json).
func BenchmarkSamplerPlan(b *testing.B) {
	p := testProfile(b, "lmc", 0.1)
	for _, method := range sampler.Names() {
		b.Run(method, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sampler.Run(context.Background(), method, p, sampler.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
