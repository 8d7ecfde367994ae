package profiler

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/workloads"
)

func testWorkload(t *testing.T, name string, scale float64) *cudamodel.Workload {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Generate(spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testHW(t *testing.T) *gpu.Model {
	t.Helper()
	m, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFullProfilerCollectsEverything(t *testing.T) {
	w := testWorkload(t, "histo", 1)
	p, err := Full(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Collected) != cudamodel.NumCharacteristics {
		t.Fatalf("collected %d metrics, want %d", len(p.Collected), cudamodel.NumCharacteristics)
	}
	if p.NumInvocations() != w.NumInvocations() {
		t.Fatalf("records %d, invocations %d", p.NumInvocations(), w.NumInvocations())
	}
	for i, r := range p.Records {
		inv := &w.Invocations[i]
		if r.Chars != inv.Chars {
			t.Fatalf("record %d characteristics differ from workload", i)
		}
		if r.Kernel != inv.Kernel || r.Seq != inv.Seq || r.CTASize != inv.CTASize() {
			t.Fatalf("record %d identity mismatch", i)
		}
	}
	if p.WallSeconds <= 0 {
		t.Fatal("profiling must take time")
	}
}

func TestInstructionCountProfilerCollectsOnlyInstructionCount(t *testing.T) {
	w := testWorkload(t, "histo", 1)
	p, err := InstructionCounts(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Collected) != 1 || p.Collected[0] != "instruction_count" {
		t.Fatalf("collected = %v", p.Collected)
	}
	for i, r := range p.Records {
		inv := &w.Invocations[i]
		if r.Chars.InstructionCount != inv.Chars.InstructionCount {
			t.Fatalf("record %d instruction count mismatch", i)
		}
		// All other metrics must be zero: the tool does not see them.
		if r.Chars.CoalescedGlobalLoads != 0 || r.Chars.DivergenceEfficiency != 0 ||
			r.Chars.ThreadBlocks != 0 || r.Chars.ThreadSharedLoads != 0 {
			t.Fatalf("record %d leaked uncollected metrics", i)
		}
	}
}

func TestFullProfilingIsSlowerThanInstructionCount(t *testing.T) {
	w := testWorkload(t, "gru", 0.01)
	hw := testHW(t)
	full, err := Full(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := InstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	if full.WallSeconds <= ic.WallSeconds {
		t.Fatalf("full profiling (%gs) should cost more than instruction counting (%gs)",
			full.WallSeconds, ic.WallSeconds)
	}
	if full.WallSeconds/ic.WallSeconds < 2 {
		t.Fatalf("full/instcount ratio %g implausibly small", full.WallSeconds/ic.WallSeconds)
	}
}

func TestTensorWorkloadsCostMoreToProfileFully(t *testing.T) {
	// The profiling-speedup gap must widen for MLPerf (tensor-heavy) versus
	// Cactus at comparable sizes — the paper's Fig. 7 observation.
	hw := testHW(t)
	cactus := testWorkload(t, "gru", 0.005)
	ml := testWorkload(t, "bert", 0.005)

	ratio := func(w *cudamodel.Workload) float64 {
		full, err := Full(w, hw)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := InstructionCounts(w, hw)
		if err != nil {
			t.Fatal(err)
		}
		return full.WallSeconds / ic.WallSeconds
	}
	if rc, rm := ratio(cactus), ratio(ml); rm <= rc {
		t.Fatalf("MLPerf profiling ratio %g should exceed Cactus ratio %g", rm, rc)
	}
}

func TestSuperlinearGrowth(t *testing.T) {
	// Doubling the invocation count must more than double full-profiling
	// time (Nsight gets slower as it profiles more kernels).
	hw := testHW(t)
	small := testWorkload(t, "gru", 0.01)
	large := testWorkload(t, "gru", 0.02)
	ps, err := Full(small, hw)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Full(large, hw)
	if err != nil {
		t.Fatal(err)
	}
	nRatio := float64(pl.NumInvocations()) / float64(ps.NumInvocations())
	tRatio := pl.WallSeconds / ps.WallSeconds
	if tRatio <= nRatio {
		t.Fatalf("profiling time ratio %g not super-linear in invocation ratio %g", tRatio, nRatio)
	}
}

func TestProfileValidateRejections(t *testing.T) {
	valid := func() *Profile {
		return &Profile{
			Workload:  "w",
			Collected: []string{"instruction_count"},
			Records: []Record{{
				Kernel: "k", Index: 0, CTASize: 128,
				Chars: cudamodel.Characteristics{InstructionCount: 10},
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no workload", func(p *Profile) { p.Workload = "" }},
		{"no records", func(p *Profile) { p.Records = nil }},
		{"no metrics", func(p *Profile) { p.Collected = nil }},
		{"bad index", func(p *Profile) { p.Records[0].Index = 3 }},
		{"no kernel", func(p *Profile) { p.Records[0].Kernel = "" }},
		{"zero instructions", func(p *Profile) { p.Records[0].Chars.InstructionCount = 0 }},
		{"zero CTA", func(p *Profile) { p.Records[0].CTASize = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := valid()
			c.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTripFull(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1)
	p, err := Full(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(p.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(p.Records))
	}
	for i := range p.Records {
		if got.Records[i] != p.Records[i] {
			t.Fatalf("record %d changed in round trip:\n got %+v\nwant %+v", i, got.Records[i], p.Records[i])
		}
	}
	if len(got.Collected) != len(p.Collected) {
		t.Fatal("collected metrics lost")
	}
}

func TestCSVRoundTripInstructionCount(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1)
	p, err := InstructionCounts(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Collected) != 1 || got.Collected[0] != "instruction_count" {
		t.Fatalf("collected = %v", got.Collected)
	}
	for i := range p.Records {
		if got.Records[i].Chars.InstructionCount != p.Records[i].Chars.InstructionCount {
			t.Fatalf("record %d instruction count changed", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"too few columns", "kernel,index\nk,0\n"},
		{"wrong fixed column", "kernel,index,seq,block,instruction_count\n"},
		{"unknown metric", "kernel,index,seq,cta_size,warp_count\nk,0,0,128,5\n"},
		{"duplicate metric column", "kernel,index,seq,cta_size,instruction_count,instruction_count\nk,0,0,128,5,6\n"},
		{"bad index", "kernel,index,seq,cta_size,instruction_count\nk,x,0,128,5\n"},
		{"bad seq", "kernel,index,seq,cta_size,instruction_count\nk,0,x,128,5\n"},
		{"bad cta", "kernel,index,seq,cta_size,instruction_count\nk,0,0,x,5\n"},
		{"bad metric value", "kernel,index,seq,cta_size,instruction_count\nk,0,0,128,zap\n"},
		{"no records", "kernel,index,seq,cta_size,instruction_count\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestWriteCSVRejectsInvalidProfile(t *testing.T) {
	p := &Profile{}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err == nil {
		t.Fatal("want error for invalid profile")
	}
}

func TestProfilerNames(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1)
	hw := testHW(t)
	full, err := Full(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	if full.Tool != "nsight-full" {
		t.Fatalf("full profiler tool %q", full.Tool)
	}
	ic, err := InstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Tool != "nvbit-instcount" {
		t.Fatalf("instruction-count profiler tool %q", ic.Tool)
	}
}
