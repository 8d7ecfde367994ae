package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/stats"
)

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
				got, err := StratifyStreamContext(context.Background(), SliceSource(profile), sopts)
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
	got, err := StratifyStreamContext(context.Background(), SliceSource(profile), StreamOptions{ReservoirSize: 64})
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
	if _, err := StratifyStreamContext(context.Background(), SliceSource(nil), StreamOptions{}); err == nil {
		t.Fatal("want error for empty stream")
	}
	bad := []InvocationProfile{{Kernel: "k", Index: 0, InstructionCount: -1, CTASize: 32}}
	if _, err := StratifyStreamContext(context.Background(), SliceSource(bad), StreamOptions{}); err == nil {
		t.Fatal("want error for invalid row")
	}
	outOfOrder := []InvocationProfile{
		{Kernel: "k", Index: 1, InstructionCount: 1, CTASize: 32},
		{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 32},
	}
	if _, err := StratifyStreamContext(context.Background(), SliceSource(outOfOrder), StreamOptions{}); err == nil {
		t.Fatal("want error for out-of-order indices")
	}
	opts := StreamOptions{}
	opts.Theta = -2
	if _, err := StratifyStreamContext(context.Background(), SliceSource(streamProfile(9, 1)), opts); err == nil {
		t.Fatal("want error for bad theta")
	}
	if _, err := StratifyStreamContext(context.Background(), SliceSource(streamProfile(9, 1)), StreamOptions{ReservoirSize: -3}); err == nil {
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

	sparsePlan, err := StratifyStreamContext(context.Background(), SliceSource(profile), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	densePlan, err := StratifyStreamContext(context.Background(), SliceSource(dense), StreamOptions{})
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

// genRows builds a deterministic synthetic stream: kernels round-robin, a
// couple of CTA sizes, instruction counts with per-kernel spread. Indices
// equal arrival positions.
func genRows(n, kernels int) []InvocationProfile {
	rows := make([]InvocationProfile, n)
	for i := 0; i < n; i++ {
		k := i % kernels
		base := float64(1000 * (k + 1))
		// Deterministic wobble without math/rand.
		wobble := float64(priority(7, i)%1000) / 1000.0
		rows[i] = InvocationProfile{
			Kernel:           fmt.Sprintf("k%02d", k),
			Index:            i,
			InstructionCount: base * (1 + 0.5*wobble),
			CTASize:          128 << (uint(i/kernels) % 2),
		}
	}
	return rows
}

// ingestRows runs the ingestion pass over rows at the given reservoir size
// and seed (zero selects the default).
func ingestRows(t *testing.T, rows []InvocationProfile, reservoirSize int, seed uint64) ([]*kernelDigest, int, error) {
	t.Helper()
	o, err := StreamOptions{ReservoirSize: reservoirSize, Seed: seed}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return ingest(context.Background(), SliceSource(rows), o)
}

// retainedIndices returns the indices a kernel's reservoir holds, ascending.
func retainedIndices(kd *kernelDigest) []int {
	out := make([]int, len(kd.res.rows))
	for i, s := range kd.res.rows {
		out[i] = s.row.Index
	}
	sort.Ints(out)
	return out
}

func TestIngestCompleteKernelsRetainEverything(t *testing.T) {
	rows := genRows(300, 3)
	kernels, n, err := ingestRows(t, rows, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("rows = %d, want 300", n)
	}
	if len(kernels) != 3 {
		t.Fatalf("kernels = %d, want 3", len(kernels))
	}
	for _, kd := range kernels {
		if kd.res.overflowed {
			t.Fatalf("kernel %s: reservoir overflowed with exactly-fitting cap", kd.name)
		}
		if kd.acc.N() != 100 || len(kd.res.rows) != 100 {
			t.Fatalf("kernel %s: N=%d rows=%d, want 100", kd.name, kd.acc.N(), len(kd.res.rows))
		}
		// A complete reservoir holds the rows in arrival order, each with
		// its arrival position.
		for i, s := range kd.res.rows {
			if s.row != rows[s.pos] || (i > 0 && s.pos <= kd.res.rows[i-1].pos) {
				t.Fatalf("kernel %s: retained row %d is %+v at position %d", kd.name, i, s.row, s.pos)
			}
		}
	}
	for i := 1; i < len(kernels); i++ {
		if kernels[i-1].name >= kernels[i].name {
			t.Fatal("kernels not sorted by name")
		}
	}
}

func TestReservoirBottomKMatchesBruteForce(t *testing.T) {
	const n, cap = 500, 16
	rows := genRows(n, 1)
	kernels, _, err := ingestRows(t, rows, cap, 42)
	if err != nil {
		t.Fatal(err)
	}
	kd := kernels[0]
	if !kd.res.overflowed {
		t.Fatal("expected overflow")
	}
	if kd.acc.N() != n {
		t.Fatalf("N = %d, want %d", kd.acc.N(), n)
	}
	// Brute-force bottom-k by priority.
	type pr struct {
		idx int
		pri uint64
	}
	all := make([]pr, n)
	for i := range rows {
		all[i] = pr{idx: rows[i].Index, pri: priority(42, rows[i].Index)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].pri < all[b].pri })
	want := make([]int, cap)
	for i := 0; i < cap; i++ {
		want[i] = all[i].idx
	}
	sort.Ints(want)
	if got := retainedIndices(kd); !reflect.DeepEqual(got, want) {
		t.Fatalf("reservoir membership = %v, want bottom-%d by priority %v", got, cap, want)
	}
}

// TestIngestDigestMatchesArrivalOrderFold checks every kernel's digest
// against a brute-force fold of that kernel's rows in arrival order: the
// accumulator bit for bit (floating-point sums included), the first row, the
// CTA classes and the reservoir membership. A digest that is this fold is a
// pure function of the source, which is what lets a stream plan have the same
// bytes on every path and at any worker count.
func TestIngestDigestMatchesArrivalOrderFold(t *testing.T) {
	const cap = 64
	rows := genRows(2000, 5)
	kernels, n, err := ingestRows(t, rows, cap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) || len(kernels) != 5 {
		t.Fatalf("pass read %d rows, %d kernels; want %d, 5", n, len(kernels), len(rows))
	}
	for _, kd := range kernels {
		var acc stats.Accumulator
		var first sample
		ctas := map[int]ctaClass{}
		var pris []sample
		for pos, r := range rows {
			if r.Kernel != kd.name {
				continue
			}
			s := sample{row: r, pos: pos, pri: priority(3, r.Index)}
			if acc.N() == 0 {
				first = s
			}
			acc.Add(r.InstructionCount)
			c, ok := ctas[r.CTASize]
			if !ok {
				c = ctaClass{size: r.CTASize, first: s}
			}
			c.count++
			ctas[r.CTASize] = c
			pris = append(pris, s)
		}
		if kd.acc != acc {
			t.Fatalf("kernel %s: accumulator %+v, want the arrival-order fold %+v", kd.name, kd.acc, acc)
		}
		if kd.first != first {
			t.Fatalf("kernel %s: first row %+v, want %+v", kd.name, kd.first, first)
		}
		if dom := kd.dominantCTA(); dom != ctas[dom.size] {
			t.Fatalf("kernel %s: dominant CTA %+v, want %+v", kd.name, dom, ctas[dom.size])
		}
		if max := kd.maxCTA(); max != ctas[max.size] {
			t.Fatalf("kernel %s: max CTA %+v, want %+v", kd.name, max, ctas[max.size])
		}
		sort.Slice(pris, func(a, b int) bool { return worse(pris[b], pris[a]) })
		want := make([]int, cap)
		for i := range want {
			want[i] = pris[i].row.Index
		}
		sort.Ints(want)
		if !kd.res.overflowed || !reflect.DeepEqual(retainedIndices(kd), want) {
			t.Fatalf("kernel %s: reservoir membership diverges from bottom-%d by priority", kd.name, cap)
		}
	}
}

// TestIngestValidation checks the per-row rejections and the ordering
// contract. A bad row fails the pass with the very message the materialized
// path reports for it.
func TestIngestValidation(t *testing.T) {
	cases := []struct {
		name string
		rows []InvocationProfile
	}{
		{"no kernel", []InvocationProfile{{Kernel: "", Index: 0, InstructionCount: 1, CTASize: 32}}},
		{"bad instcount", []InvocationProfile{{Kernel: "k", Index: 0, InstructionCount: 0, CTASize: 32}}},
		{"bad cta", []InvocationProfile{{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 0}}},
		{"duplicate index", []InvocationProfile{
			{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 32},
			{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 32},
		}},
		{"out of order", []InvocationProfile{
			{Kernel: "k", Index: 5, InstructionCount: 1, CTASize: 32},
			{Kernel: "k", Index: 4, InstructionCount: 1, CTASize: 32},
		}},
	}
	for _, c := range cases {
		_, _, err := ingestRows(t, c.rows, 0, 0)
		if err == nil {
			t.Fatalf("%s: want error", c.name)
		}
		if len(c.rows) == 1 {
			_, want := StratifyContext(context.Background(), c.rows, Options{})
			if want == nil || err.Error() != want.Error() {
				t.Fatalf("%s: stream error %q, materialized error %v", c.name, err, want)
			}
		}
	}
}

func TestIngestSourceErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	n := 0
	src := func() (InvocationProfile, error) {
		if n == 10 {
			return InvocationProfile{}, boom
		}
		r := InvocationProfile{Kernel: "k", Index: n, InstructionCount: 1, CTASize: 32}
		n++
		return r, nil
	}
	if _, err := StratifyStreamContext(context.Background(), src, StreamOptions{}); err != boom {
		t.Fatalf("err = %v, want the source's error unwrapped", err)
	}
}

func TestIngestEmptySource(t *testing.T) {
	kernels, n, err := ingestRows(t, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(kernels) != 0 {
		t.Fatalf("empty source yielded %d rows, %d kernels", n, len(kernels))
	}
}

func TestIngestRejectsBadOptions(t *testing.T) {
	o, err := StreamOptions{}.withDefaults()
	if err != nil || o.ReservoirSize != DefaultReservoirSize || o.Seed != DefaultSeed {
		t.Fatalf("zero options default to reservoir %d seed %d (err %v), want %d and %d", o.ReservoirSize, o.Seed, err, DefaultReservoirSize, DefaultSeed)
	}
	for _, o := range []StreamOptions{
		{ReservoirSize: -1},
	} {
		if _, err := StratifyStreamContext(context.Background(), SliceSource(genRows(10, 1)), o); err == nil || !strings.Contains(err.Error(), "reservoir size") {
			t.Fatalf("options %+v: err = %v, want a reservoir size error", o, err)
		}
	}
}

func TestDominantCTATieBreaksTowardEarliest(t *testing.T) {
	rows := []InvocationProfile{
		{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 256},
		{Kernel: "k", Index: 1, InstructionCount: 1, CTASize: 128},
		{Kernel: "k", Index: 2, InstructionCount: 1, CTASize: 256},
		{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 128},
	}
	kernels, _, err := ingestRows(t, rows, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dom := kernels[0].dominantCTA()
	if dom.size != 256 || dom.first.row.Index != 0 || dom.count != 2 {
		t.Fatalf("dominant = %+v, want size 256 first 0 count 2", dom)
	}
	if max := kernels[0].maxCTA(); max.size != 256 {
		t.Fatalf("max CTA = %+v, want 256", max)
	}
}

// fuzzRows decodes fuzz bytes into profile rows, four bytes a row: an index
// gap (indices strictly ascend), a kernel name (byte 255 gives none), an
// instruction count and a CTA size (either may be zero or negative). The
// first byte picks the selection policy and the splitter.
func fuzzRows(data []byte) (Options, []InvocationProfile) {
	var opts Options
	if len(data) > 0 {
		opts.Selection = SelectionPolicy(data[0] % 3)
		opts.Tier3Splitter = Splitter(data[0] / 3 % 3)
		data = data[1:]
	}
	names := []string{"gemm", "relu", "conv", "pool"}
	var rows []InvocationProfile
	index := -1
	for ; len(data) >= 4 && len(rows) < 256; data = data[4:] {
		index += 1 + int(data[0]%4)
		kernel := names[data[1]%4]
		if data[1] == 255 {
			kernel = ""
		}
		count := float64(int(data[2]) * int(data[2]))
		if data[2] == 255 {
			count = -1
		}
		cta := 32 << (data[3] % 3)
		switch data[3] {
		case 0:
			cta = 0
		case 255:
			cta = -32
		}
		rows = append(rows, InvocationProfile{Kernel: kernel, Index: index, InstructionCount: count, CTASize: cta})
	}
	return opts, rows
}

// FuzzStratifyStream checks the streaming planner against the materialized
// one on arbitrary rows. With a reservoir that holds every row the two fail
// together or return the same plan, which pins the shared row check. With a
// one-row reservoir the pass must not panic, and its plan is Sampled exactly
// when some kernel has more than one row.
func FuzzStratifyStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 1})
	f.Add([]byte{1, 0, 1, 10, 1, 1, 1, 0, 1})
	seed := []byte{4}
	for i := 0; i < 96; i++ {
		seed = append(seed, byte(i), byte(i%3), byte(20+(i*37)%200), byte(1+i%5))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, rows := fuzzRows(data)
		ctx := context.Background()
		want, wantErr := StratifyContext(ctx, rows, opts)
		got, err := StratifyStreamContext(ctx, SliceSource(rows), StreamOptions{Options: opts, ReservoirSize: max(len(rows), 1)})
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("materialized err %v, stream err %v", wantErr, err)
		}
		if err == nil {
			samePlan(t, want, got, "full reservoir")
		}

		got, err = StratifyStreamContext(ctx, SliceSource(rows), StreamOptions{Options: opts, ReservoirSize: 1})
		if err != nil {
			return
		}
		perKernel := map[string]int{}
		repeated := false
		for _, r := range rows {
			perKernel[r.Kernel]++
			repeated = repeated || perKernel[r.Kernel] > 1
		}
		if got.Sampled != repeated {
			t.Fatalf("1-row reservoir: Sampled = %v, want %v", got.Sampled, repeated)
		}
	})
}
