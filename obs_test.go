package sieve

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// synthObsProfile builds a deterministic three-kernel profile covering every
// tier: constant (Tier-1), mildly varying (Tier-2) and bimodal (Tier-3, so
// the KDE splitter actually runs).
func synthObsProfile() []InvocationProfile {
	var rows []InvocationProfile
	rng := rand.New(rand.NewSource(7))
	add := func(kernel string, instr float64, cta int) {
		rows = append(rows, InvocationProfile{
			Kernel: kernel, Index: len(rows), InstructionCount: instr, CTASize: cta,
		})
	}
	for i := 0; i < 40; i++ {
		add("constant", 1000, 128)
	}
	for i := 0; i < 60; i++ {
		add("mild", 5000*(1+0.05*rng.Float64()), 256)
	}
	for i := 0; i < 80; i++ {
		base := 1000.0
		if i%2 == 0 {
			base = 50000
		}
		add("bimodal", base*(1+0.01*rng.Float64()), 64<<(i%2))
	}
	return rows
}

// planJSON serializes the exported plan state for byte comparison.
func planJSON(t *testing.T, p *Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectorDoesNotChangePlans pins the observability layer's core
// guarantee: attaching a collector must not change a single byte of the
// emitted plan, for every splitter and for both the materializing and the
// streaming samplers (exact and overflowed reservoirs).
func TestCollectorDoesNotChangePlans(t *testing.T) {
	rows := synthObsProfile()
	for _, splitter := range []Splitter{SplitKDE, SplitEqualWidth, SplitGMM} {
		t.Run(splitter.String(), func(t *testing.T) {
			opts := Options{Tier3Splitter: splitter}
			base, err := Sample(rows, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := WithCollector(context.Background(), NewCollector())
			observed, err := SampleContext(ctx, rows, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, observed), planJSON(t, base); string(got) != string(want) {
				t.Fatalf("plan changed under collector:\n%s\nvs\n%s", got, want)
			}
		})
	}
	for _, reservoir := range []int{0, 32} { // exact and overflowed
		opts := MethodOptions{Stream: true, ReservoirSize: reservoir}
		base, err := SampleMethod("", &MethodProfile{Rows: rows}, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := WithCollector(context.Background(), NewCollector())
		observed, err := SampleMethodContext(ctx, "", &MethodProfile{Rows: rows}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planJSON(t, observed), planJSON(t, base); string(got) != string(want) {
			t.Fatalf("streaming plan (reservoir %d) changed under collector", reservoir)
		}
	}
}

// TestReportCoversPipelineStages runs the samplers and PKS under one
// collector and checks the report carries the stage spans the docs promise:
// core.stratify with a core.kernel child per kernel (tier/strata/CoV attrs),
// a kde.split under the Tier-3 kernel, stream.ingest under
// core.stratify_stream, and a pks.select sweep with per-k children.
func TestReportCoversPipelineStages(t *testing.T) {
	rows := synthObsProfile()
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)

	if _, err := SampleContext(ctx, rows, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := SampleMethodContext(ctx, "", &MethodProfile{Rows: rows}, MethodOptions{Stream: true}); err != nil {
		t.Fatal(err)
	}
	features := make([][]float64, len(rows))
	golden := make([]float64, len(rows))
	for i, r := range rows {
		features[i] = []float64{r.InstructionCount, float64(r.CTASize)}
		golden[i] = r.InstructionCount
	}
	if _, err := PKSSelectContext(ctx, features, golden, PKSOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	rep := col.Report()
	strat := rep.Find("core.stratify")
	if strat == nil {
		t.Fatal("report missing core.stratify span")
	}
	if strat.Attrs["kernels"] != 3 || strat.Counters["rows"] != int64(len(rows)) {
		t.Fatalf("core.stratify attrs/counters: %v / %v", strat.Attrs, strat.Counters)
	}
	kernels := map[string]*SpanReport{}
	for _, ks := range rep.FindAll("core.kernel") {
		kernels[ks.Attrs["kernel"].(string)] = ks
	}
	for name, tier := range map[string]string{
		"constant": "Tier-1", "mild": "Tier-2", "bimodal": "Tier-3",
	} {
		ks, ok := kernels[name]
		if !ok {
			t.Fatalf("no core.kernel span for %q", name)
		}
		if ks.Attrs["tier"] != tier {
			t.Fatalf("kernel %s tier = %v, want %s", name, ks.Attrs["tier"], tier)
		}
		strata := ks.Attrs["strata"].(int)
		if strata < 1 {
			t.Fatalf("kernel %s strata = %d", name, strata)
		}
		if covs := ks.Attrs["strata_cov"].([]float64); len(covs) != strata {
			t.Fatalf("kernel %s: %d strata but %d per-stratum CoVs", name, strata, len(covs))
		}
	}
	bimodal := kernels["bimodal"]
	foundSplit := false
	for _, c := range bimodal.Children {
		if c.Name == "kde.split" {
			foundSplit = true
		}
	}
	if !foundSplit {
		t.Fatalf("Tier-3 kernel span has no nested kde.split: %+v", bimodal.Children)
	}

	ss := rep.Find("core.stratify_stream")
	if ss == nil {
		t.Fatal("report missing core.stratify_stream span")
	}
	ingestNested := false
	for _, c := range ss.Children {
		if c.Name == "stream.ingest" {
			ingestNested = true
			if c.Counters["rows"] != int64(len(rows)) {
				t.Fatalf("stream.ingest rows = %d", c.Counters["rows"])
			}
		}
	}
	if !ingestNested {
		t.Fatal("stream.ingest not nested under core.stratify_stream")
	}

	sel := rep.Find("pks.select")
	if sel == nil {
		t.Fatal("report missing pks.select span")
	}
	if _, ok := sel.Attrs["chosen_k"].(int); !ok {
		t.Fatalf("pks.select has no chosen_k: %v", sel.Attrs)
	}
	if ks := rep.FindAll("pks.k"); len(ks) != sel.Attrs["max_k"].(int) {
		t.Fatalf("%d pks.k spans for max_k %v", len(ks), sel.Attrs["max_k"])
	}
}
