package core

import (
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// rowSource adapts a row slice to the streaming pull interface.
func rowSource(rows []InvocationProfile) RowSource {
	i := 0
	return func() (InvocationProfile, error) {
		if i >= len(rows) {
			return InvocationProfile{}, io.EOF
		}
		r := rows[i]
		i++
		return r, nil
	}
}

// streamProfile builds a mixed-tier profile: a Tier-1 kernel, a low-variance
// Tier-2 kernel and a multi-modal Tier-3 kernel, interleaved chronologically.
func streamProfile(n int, seed int64) []InvocationProfile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]InvocationProfile, 0, n)
	for i := 0; i < n; i++ {
		var p InvocationProfile
		switch i % 3 {
		case 0:
			p = InvocationProfile{Kernel: "const", InstructionCount: 5e4, CTASize: 128}
		case 1:
			p = InvocationProfile{Kernel: "lowvar", InstructionCount: 2e5 * (1 + 0.1*rng.Float64()), CTASize: 256}
		default:
			center := []float64{1e4, 9e4, 4e5}[rng.Intn(3)]
			p = InvocationProfile{Kernel: "multi", InstructionCount: center * (1 + 0.05*rng.Float64()), CTASize: []int{64, 128}[rng.Intn(2)]}
		}
		p.Index = i
		out = append(out, p)
	}
	return out
}

func samePlan(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Strata, got.Strata) {
		t.Fatalf("%s: strata diverge", label)
	}
	if want.TotalInstructions != got.TotalInstructions {
		t.Fatalf("%s: total instructions %g vs %g", label, want.TotalInstructions, got.TotalInstructions)
	}
	if want.TierInvocations != got.TierInvocations {
		t.Fatalf("%s: tier invocations %v vs %v", label, want.TierInvocations, got.TierInvocations)
	}
	if want.Theta != got.Theta || want.Sampled != got.Sampled {
		t.Fatalf("%s: theta/sampled diverge", label)
	}
}

// TestStratifyStreamMatchesStratify is the headline equivalence: whenever
// every kernel fits its reservoir, the streaming plan is byte-identical to
// the materializing plan — at any Parallelism and any reservoir at least as
// large as the biggest kernel.
func TestStratifyStreamMatchesStratify(t *testing.T) {
	profile := streamProfile(900, 7)
	for _, opts := range []Options{
		{},
		{Selection: SelectFirstChronological},
		{Selection: SelectMaxCTA},
		{Tier3Splitter: SplitEqualWidth},
		{Tier3Splitter: SplitGMM},
		{Theta: 0.2},
	} {
		want, err := StratifyContext(context.Background(), profile, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			for _, reservoir := range []int{300, 1024, 100000} {
				sopts := StreamOptions{Options: opts, ReservoirSize: reservoir}
				sopts.Parallelism = p
				got, err := StratifyStreamContext(context.Background(), rowSource(profile), sopts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Sampled {
					t.Fatalf("opts %+v p=%d reservoir=%d: plan marked sampled though every kernel fits", opts, p, reservoir)
				}
				samePlan(t, want, got, "streaming equivalence")
			}
		}
	}
}

// TestStratifyStreamSampledPlan exercises the overflow path: the reservoir is
// far smaller than the kernels, so tier decisions come from the online
// accumulators and Tier-3 splits run on the sample.
func TestStratifyStreamSampledPlan(t *testing.T) {
	profile := streamProfile(3000, 11)
	want, err := StratifyContext(context.Background(), profile, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := StratifyStreamContext(context.Background(), rowSource(profile), StreamOptions{ReservoirSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sampled {
		t.Fatal("plan not marked sampled despite reservoir overflow")
	}
	// Tier classification from accumulators matches the exact pass.
	if got.TierInvocations != want.TierInvocations {
		t.Fatalf("tier invocations %v, want %v", got.TierInvocations, want.TierInvocations)
	}
	// Instruction totals stay exact (accumulator sums, not sampled sums).
	if rel := math.Abs(got.TotalInstructions-want.TotalInstructions) / want.TotalInstructions; rel > 1e-9 {
		t.Fatalf("total instructions off by %g", rel)
	}
	// Weights normalize.
	var wsum float64
	for i := range got.Strata {
		wsum += got.Strata[i].Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", wsum)
	}
	// Tier-1/Tier-2 representatives are exact — same invocation the
	// materializing path picks (streaming frequency/first tracking sees
	// every row even when the reservoir does not).
	wantRep := map[string]int{}
	for i := range want.Strata {
		s := &want.Strata[i]
		if s.Tier != Tier3 {
			wantRep[s.Kernel] = s.Representative
		}
	}
	for i := range got.Strata {
		s := &got.Strata[i]
		if s.Tier == Tier3 {
			continue
		}
		if rep, ok := wantRep[s.Kernel]; !ok || rep != s.Representative {
			t.Fatalf("kernel %s: streaming representative %d, exact %d", s.Kernel, s.Representative, rep)
		}
	}
	// Prediction works on a sampled plan: every representative is resolvable.
	pred, err := got.Predict(func(i int) (float64, error) { return 1000, nil })
	if err != nil {
		t.Fatal(err)
	}
	if pred.IPC <= 0 || pred.Cycles <= 0 {
		t.Fatalf("degenerate prediction %+v", pred)
	}
	// Speedup and cycle CoV refuse partial membership loudly.
	golden := make([]float64, len(profile))
	for i := range golden {
		golden[i] = 100
	}
	if _, err := got.Speedup(golden); err == nil || !strings.Contains(err.Error(), "sampled") {
		t.Fatalf("Speedup on sampled plan: err = %v, want sampled-plan refusal", err)
	}
	if _, err := got.WeightedCycleCoV(golden); err == nil || !strings.Contains(err.Error(), "sampled") {
		t.Fatalf("WeightedCycleCoV on sampled plan: err = %v, want sampled-plan refusal", err)
	}
}

func TestStratifyStreamErrors(t *testing.T) {
	if _, err := StratifyStreamContext(context.Background(), rowSource(nil), StreamOptions{}); err == nil {
		t.Fatal("want error for empty stream")
	}
	bad := []InvocationProfile{{Kernel: "k", Index: 0, InstructionCount: -1, CTASize: 32}}
	if _, err := StratifyStreamContext(context.Background(), rowSource(bad), StreamOptions{}); err == nil {
		t.Fatal("want error for invalid row")
	}
	outOfOrder := []InvocationProfile{
		{Kernel: "k", Index: 1, InstructionCount: 1, CTASize: 32},
		{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 32},
	}
	if _, err := StratifyStreamContext(context.Background(), rowSource(outOfOrder), StreamOptions{}); err == nil {
		t.Fatal("want error for out-of-order indices")
	}
	opts := StreamOptions{}
	opts.Theta = -2
	if _, err := StratifyStreamContext(context.Background(), rowSource(streamProfile(9, 1)), opts); err == nil {
		t.Fatal("want error for bad theta")
	}
	if _, err := StratifyStreamContext(context.Background(), rowSource(streamProfile(9, 1)), StreamOptions{ReservoirSize: -3}); err == nil {
		t.Fatal("want error for bad reservoir size")
	}
}

// TestStratifyStreamSparseIndices feeds offset, gappy indices end to end:
// stratification, prediction and speedup must resolve positions through the
// plan's mapping, not assume dense 0..n-1 indices.
func TestStratifyStreamSparseIndices(t *testing.T) {
	profile := streamProfile(300, 3)
	for i := range profile {
		profile[i].Index = 1000 + 7*i
	}
	dense := streamProfile(300, 3)

	sparsePlan, err := StratifyStreamContext(context.Background(), rowSource(profile), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	densePlan, err := StratifyStreamContext(context.Background(), rowSource(dense), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	golden := make([]float64, len(profile))
	for i := range golden {
		golden[i] = 500 + 3*float64(i%17)
	}
	sparseSp, err := sparsePlan.Speedup(golden)
	if err != nil {
		t.Fatal(err)
	}
	denseSp, err := densePlan.Speedup(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sparseSp != denseSp {
		t.Fatalf("sparse speedup %g != dense %g", sparseSp, denseSp)
	}
}
