package profiler

import (
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
)

func TestTwoLevelDefaults(t *testing.T) {
	// lmc at scale 0.01 has more invocations than the default batch, so
	// both levels run.
	w := testWorkload(t, "lmc", 0.01)
	hw := testHW(t)
	def, err := TwoLevel(w, hw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Tool != "nsight-two-level" {
		t.Fatalf("tool %q", def.Tool)
	}
	explicit, err := TwoLevel(w, hw, defaultDetailedBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatal("detailed batch 0 does not select the default batch")
	}
}

func TestTwoLevelFallsBackToFullForSmallWorkloads(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1) // 10 invocations
	hw := testHW(t)
	two, err := TwoLevel(w, hw, 100)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Full(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Records {
		if two.Records[i].Chars != full.Records[i].Chars {
			t.Fatal("small workload should be fully profiled")
		}
	}
}

func TestTwoLevelDetailedBatchIsExact(t *testing.T) {
	w := testWorkload(t, "gru", 0.02)
	hw := testHW(t)
	batch := 200
	p, err := TwoLevel(w, hw, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batch; i++ {
		if p.Records[i].Chars != w.Invocations[i].Chars {
			t.Fatalf("detailed record %d not exact", i)
		}
	}
}

func TestTwoLevelRemainderIsApproximated(t *testing.T) {
	w := testWorkload(t, "gru", 0.02)
	hw := testHW(t)
	batch := 200
	p, err := TwoLevel(w, hw, batch)
	if err != nil {
		t.Fatal(err)
	}
	// Remainder records: identity and launch dims are real; instruction
	// counts are approximations that should sit near — but generally not
	// exactly at — the true values.
	approximated := 0
	for i := batch; i < len(p.Records); i++ {
		rec := p.Records[i]
		inv := &w.Invocations[i]
		if rec.Kernel != inv.Kernel || rec.CTASize != inv.CTASize() {
			t.Fatalf("record %d lost identity", i)
		}
		if rec.Chars.ThreadBlocks != float64(inv.Grid.Count()) {
			t.Fatalf("record %d: ThreadBlocks %g, want grid %d", i, rec.Chars.ThreadBlocks, inv.Grid.Count())
		}
		if rec.Chars.InstructionCount <= 0 {
			t.Fatalf("record %d: non-positive approximated instructions", i)
		}
		ratio := rec.Chars.InstructionCount / inv.Chars.InstructionCount
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("record %d: approximation off by %gx", i, ratio)
		}
		if rec.Chars != inv.Chars {
			approximated++
		}
	}
	if approximated == 0 {
		t.Fatal("remainder should be approximated, not copied")
	}
}

func TestTwoLevelIsCheaperThanFull(t *testing.T) {
	w := testWorkload(t, "lmc", 0.01)
	hw := testHW(t)
	full, err := Full(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoLevel(w, hw, 300)
	if err != nil {
		t.Fatal(err)
	}
	if two.WallSeconds >= full.WallSeconds {
		t.Fatalf("two-level (%gs) should be cheaper than full (%gs)", two.WallSeconds, full.WallSeconds)
	}
	// But still more expensive than pure instruction counting.
	ic, err := InstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	if two.WallSeconds <= ic.WallSeconds {
		t.Fatalf("two-level (%gs) should still cost more than instruction counting (%gs)",
			two.WallSeconds, ic.WallSeconds)
	}
}

func TestTwoLevelRejectsInvalidWorkload(t *testing.T) {
	hw := testHW(t)
	if _, err := TwoLevel(&cudamodel.Workload{}, hw, 10); err == nil {
		t.Fatal("want error for invalid workload")
	}
}
