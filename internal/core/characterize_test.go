package core

import (
	"context"
	"math"
	"testing"
)

func TestCharacterizeBasics(t *testing.T) {
	p := profileOf(
		[3]interface{}{"big", 1000.0, 256},
		[3]interface{}{"small", 10.0, 64},
		[3]interface{}{"big", 1000.0, 256},
		[3]interface{}{"small", 12.0, 64},
		[3]interface{}{"big", 1000.0, 128},
	)
	sums, err := CharacterizeContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// Ordered by instruction share: big first.
	big := sums[0]
	if big.Kernel != "big" || big.Invocations != 3 {
		t.Fatalf("first summary = %+v", big)
	}
	if big.Tier != Tier1 || big.InstrCoV != 0 {
		t.Fatalf("big should be Tier-1 constant: %+v", big)
	}
	if big.InstrMin != 1000 || big.InstrMax != 1000 || big.InstrMean != 1000 {
		t.Fatalf("big stats = %+v", big)
	}
	if big.DominantCTA != 256 {
		t.Fatalf("big dominant CTA = %d", big.DominantCTA)
	}
	if big.Strata != 1 {
		t.Fatalf("big strata = %d", big.Strata)
	}
	small := sums[1]
	if small.Tier != Tier2 {
		t.Fatalf("small tier = %v", small.Tier)
	}
	wantShare := 3000.0 / 3022.0
	if math.Abs(big.InstrShare-wantShare) > 1e-12 {
		t.Fatalf("big share = %g, want %g", big.InstrShare, wantShare)
	}
	if math.Abs(big.InstrShare+small.InstrShare-1) > 1e-12 {
		t.Fatal("shares must sum to 1")
	}
}

func TestCharacterizeTier3StrataCount(t *testing.T) {
	var rows [][3]interface{}
	for i := 0; i < 40; i++ {
		rows = append(rows, [3]interface{}{"multi", 100.0 + float64(i%2), 128})
		rows = append(rows, [3]interface{}{"multi", 50000.0 + float64(i%3), 128})
	}
	sums, err := CharacterizeContext(context.Background(), profileOf(rows...), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Tier != Tier3 {
		t.Fatalf("tier = %v", sums[0].Tier)
	}
	if sums[0].Strata < 2 {
		t.Fatalf("bimodal kernel should contribute ≥ 2 strata, got %d", sums[0].Strata)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := CharacterizeContext(context.Background(), nil, 0.4); err == nil {
		t.Fatal("want error on empty profile")
	}
}
