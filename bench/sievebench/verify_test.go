package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// servedPlan returns the bytes sieved serves for entry e's default plan.
func servedPlan(t *testing.T, e *entry) []byte {
	t.Helper()
	b, err := json.Marshal(e.want)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tamper flips the first digit of the plan's invocation lists, leaving the
// document valid JSON.
func tamper(t *testing.T, plan []byte) []byte {
	t.Helper()
	out := append([]byte(nil), plan...)
	i := bytes.Index(out, []byte(`"invocations":[`))
	if i < 0 {
		t.Fatal("plan has no invocation list")
	}
	i += len(`"invocations":[`)
	if out[i] == '9' {
		out[i] = '8'
	} else {
		out[i]++
	}
	return out
}

func TestVerifierRejectsTamperedPlanByte(t *testing.T) {
	ctx := context.Background()
	entries, err := buildEntries(ctx, []spec{{"gru", 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	plan := servedPlan(t, entries[0])
	bad := tamper(t, plan)

	// Inline: a plan_id must name the same bytes on every response.
	v := newVerifier()
	if err := v.observe(0, "", 1, "id-1", false, plan); err != nil {
		t.Fatalf("genuine plan rejected: %v", err)
	}
	err = v.observe(0, "", 1, "id-1", false, bad)
	var vErr verifyError
	if !errors.As(err, &vErr) {
		t.Fatalf("tampered plan under the same id: got %v, want a verifyError", err)
	}
	if errs := v.finish(ctx, entries); len(errs) != 0 {
		t.Fatalf("genuine first plan failed the deferred check: %v", errs)
	}

	// Deferred: the first plan of an entry must match the in-process plan.
	v = newVerifier()
	if err := v.observe(0, "", 1, "id-2", false, bad); err != nil {
		t.Fatalf("first sight of a plan_id: %v", err)
	}
	if errs := v.finish(ctx, entries); len(errs) != 1 || !errors.As(errs[0], &vErr) {
		t.Fatalf("tampered first plan: got %v, want one verifyError", errs)
	}
}

func TestVerifierChecksCachedFlagAndRecomputesMethodPlans(t *testing.T) {
	ctx := context.Background()
	entries, err := buildEntries(ctx, []spec{{"gst", 1}})
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier()
	v.wantCached = boolPtr(true)
	if err := v.observe(0, "", 1, "id", false, servedPlan(t, entries[0])); err == nil {
		t.Fatal("cached=false accepted where every response must be a hit")
	}

	v = newVerifier()
	const seed = 42
	plan, err := methodPlan(ctx, entries[0], "twophase", seed)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(wirePlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	// Plans 0 and 10 of a method are rechecked; plan 0 is genuine, plan 10
	// tampered.
	for i := 0; i <= recheckEvery; i++ {
		served := good
		if i == recheckEvery {
			served = tamper(t, good)
		}
		if err := v.observe(0, "twophase", seed, "id-"+string(rune('a'+i)), false, served); err != nil {
			t.Fatal(err)
		}
	}
	if len(v.rechecks) != 2 {
		t.Fatalf("%d plans sampled for recompute, want 2", len(v.rechecks))
	}
	if errs := v.finish(ctx, entries); len(errs) != 1 {
		t.Fatalf("recompute found %d mismatches (%v), want 1", len(errs), errs)
	}
}
