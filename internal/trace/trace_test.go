package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/workloads"
)

func sampleTrace() *Trace {
	return &Trace{
		Kernel:     "k",
		Invocation: 7,
		Grid:       cudamodel.Dim3{X: 4, Y: 1, Z: 1},
		Block:      cudamodel.Dim3{X: 64, Y: 1, Z: 1},
		Warps:      2,
		Instrs: []Instr{
			{Warp: 0, PC: 0x1000, Op: OpIMAD, ActiveMask: 0xFFFFFFFF},
			{Warp: 0, PC: 0x1010, Op: OpLDG, ActiveMask: 0xFFFFFFFF, Addr: 0xdeadbeef, Lines: 4},
			{Warp: 1, PC: 0x1000, Op: OpLDS, ActiveMask: 0xFFFF, Addr: 0x40},
			{Warp: 0, PC: 0x1020, Op: OpEXIT, ActiveMask: 0xFFFFFFFF},
			{Warp: 1, PC: 0x1010, Op: OpEXIT, ActiveMask: 0xFFFFFFFF},
		},
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpLDG.IsMemory() || !OpSTG.IsMemory() || OpLDS.IsMemory() || OpIMAD.IsMemory() {
		t.Fatal("IsMemory misclassifies")
	}
	if !OpLDS.IsShared() || !OpSTS.IsShared() || OpLDG.IsShared() {
		t.Fatal("IsShared misclassifies")
	}
	for _, op := range []Opcode{OpIMAD, OpFFMA, OpHMMA, OpLDG, OpSTG, OpLDS, OpSTS, OpBRA, OpEXIT} {
		if !op.Valid() {
			t.Fatalf("%s should be valid", op)
		}
	}
	if Opcode("FROB").Valid() {
		t.Fatal("unknown opcode accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"no kernel", func(tr *Trace) { tr.Kernel = "" }},
		{"zero warps", func(tr *Trace) { tr.Warps = 0 }},
		{"no instrs", func(tr *Trace) { tr.Instrs = nil }},
		{"warp out of range", func(tr *Trace) { tr.Instrs[0].Warp = 5 }},
		{"bad opcode", func(tr *Trace) { tr.Instrs[0].Op = "NOP9" }},
		{"empty mask", func(tr *Trace) { tr.Instrs[0].ActiveMask = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := sampleTrace()
			c.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel != tr.Kernel || got.Invocation != tr.Invocation ||
		got.Grid != tr.Grid || got.Block != tr.Block || got.Warps != tr.Warps {
		t.Fatalf("header changed: %+v", got)
	}
	if len(got.Instrs) != len(tr.Instrs) {
		t.Fatalf("instrs %d, want %d", len(got.Instrs), len(tr.Instrs))
	}
	for i := range tr.Instrs {
		if got.Instrs[i] != tr.Instrs[i] {
			t.Fatalf("instr %d changed: %+v vs %+v", i, got.Instrs[i], tr.Instrs[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "not-a-trace 1\n"},
		{"future version", "sieve-trace 99\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 0\n"},
		{"truncated header", "sieve-trace 1\nkernel k\n"},
		{"instr count mismatch", "sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 2\n0 1000 IMAD ffffffff\n"},
		{"memory op without address", "sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 1\n0 1000 LDG ffffffff\n"},
		{"bad warp", "sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 1\nx 1000 IMAD ffffffff\n"},
		{"bad dims", "sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1\nblock 32 1 1\nwarps 1\ninstrs 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.in)); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	tr := sampleTrace()
	tr.Kernel = ""
	var buf bytes.Buffer
	if err := tr.Write(&buf); err == nil {
		t.Fatal("want error for invalid trace")
	}
}

func testInvocation(t *testing.T) *cudamodel.Invocation {
	t.Helper()
	spec, err := workloads.ByName("gru")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Generate(spec, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	return &w.Invocations[0]
}

func TestGenerateBasics(t *testing.T) {
	inv := testInvocation(t)
	tr, err := Generate(inv, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Kernel != inv.Kernel || tr.Invocation != inv.Index {
		t.Fatal("trace identity mismatch")
	}
	if len(tr.Instrs) > 5000+tr.Warps {
		t.Fatalf("trace exceeds cap: %d instructions", len(tr.Instrs))
	}
	// Each warp ends with EXIT, and per-warp PCs are monotonically
	// increasing.
	lastPC := make(map[int]uint64)
	lastOp := make(map[int]Opcode)
	for _, ins := range tr.Instrs {
		if prev, ok := lastPC[ins.Warp]; ok && ins.PC <= prev {
			t.Fatal("PC not increasing within warp")
		}
		lastPC[ins.Warp] = ins.PC
		lastOp[ins.Warp] = ins.Op
	}
	for w := 0; w < tr.Warps; w++ {
		if lastOp[w] != OpEXIT {
			t.Fatalf("warp %d does not end with EXIT", w)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	inv := testInvocation(t)
	a, err := Generate(inv, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(inv, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Instrs) != len(b.Instrs) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instr %d differs", i)
		}
	}
	c, err := Generate(inv, 2000, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Instrs) == len(c.Instrs)
	if same {
		identical := true
		for i := range a.Instrs {
			if a.Instrs[i] != c.Instrs[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateMixReflectsCharacteristics(t *testing.T) {
	inv := testInvocation(t)
	tr, err := Generate(inv, 50000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var mem, total int
	for _, ins := range tr.Instrs {
		if ins.Op == OpEXIT {
			continue
		}
		total++
		if ins.Op.IsMemory() {
			mem++
		}
	}
	wantFrac := (inv.Chars.ThreadGlobalLoads + inv.Chars.ThreadGlobalStores) / inv.Chars.InstructionCount
	gotFrac := float64(mem) / float64(total)
	if gotFrac < wantFrac*0.6 || gotFrac > wantFrac*1.4 {
		t.Fatalf("memory mix %.3f far from profiled %.3f", gotFrac, wantFrac)
	}
}

func TestGenerateRejectsEmptyInvocation(t *testing.T) {
	inv := &cudamodel.Invocation{}
	if _, err := Generate(inv, 100, 1); err == nil {
		t.Fatal("want error for empty invocation")
	}
}

func TestGenerateRoundTripThroughFormat(t *testing.T) {
	inv := testInvocation(t)
	tr, err := Generate(inv, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Instrs) != len(tr.Instrs) {
		t.Fatal("round trip lost instructions")
	}
}

func TestReadVersion1TraceDefaultsLines(t *testing.T) {
	// A version-1 file (no line counts on memory ops) must still parse,
	// with the coalescing degree defaulting to 1.
	v1 := "sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 2\n" +
		"0 1000 LDG ffffffff beef\n0 1010 EXIT ffffffff\n"
	tr, err := Read(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instrs[0].Lines != 1 {
		t.Fatalf("v1 memory op lines = %d, want 1", tr.Instrs[0].Lines)
	}
}

func TestReadRejectsBadLineCount(t *testing.T) {
	in := "sieve-trace 2\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 1\n" +
		"0 1000 LDG ffffffff beef zap\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("want error for non-numeric line count")
	}
}

func TestGenerateEmitsCoalescingDegrees(t *testing.T) {
	inv := testInvocation(t)
	tr, err := Generate(inv, 20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	var memOps, linesSum int
	for _, ins := range tr.Instrs {
		if ins.Op.IsMemory() {
			memOps++
			if ins.Lines < 1 || ins.Lines > 32 {
				t.Fatalf("lines = %d", ins.Lines)
			}
			linesSum += ins.Lines
		}
	}
	if memOps == 0 {
		t.Skip("no memory ops in this trace")
	}
	// The mean degree should be near the profiled 32×transactions/accesses.
	want := 32 * inv.Chars.CoalescedGlobalLoads / inv.Chars.ThreadGlobalLoads
	got := float64(linesSum) / float64(memOps)
	if got < want*0.5 || got > want*2+1 {
		t.Fatalf("mean coalescing degree %.1f far from profiled %.1f", got, want)
	}
}

// TestReadDoesNotTrustInstrCount feeds a header that promises 10^8
// instructions and holds none: Read must reject it without first allocating
// room for all of them.
func TestReadDoesNotTrustInstrCount(t *testing.T) {
	in := "sieve-trace 2\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 100000000\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a trace missing its instructions")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Read allocated %d bytes for an empty instruction list", grew)
	}
}
