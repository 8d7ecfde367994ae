// Package trace defines the SASS-like plain-text trace format the sampling
// workflow hands to the detailed simulator (Section V-G of the paper: the
// Accel-sim tracer is modified "to only create the SASS trace of the selected
// kernel invocations; the traces are simple plain text files").
//
// A trace holds one kernel invocation's dynamic warp-instruction stream. The
// text encoding is line-oriented: a small header followed by one instruction
// per line, so traces can be diffed, grepped and streamed.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/gpusampling/sieve/internal/cudamodel"
)

// Opcode is a SASS-like instruction class. The simulator keys its latencies
// and resource usage on these classes rather than exact SASS mnemonics.
type Opcode string

// The opcode classes emitted by the tracer.
const (
	OpIMAD Opcode = "IMAD" // integer multiply-add (general ALU)
	OpFFMA Opcode = "FFMA" // FP32 fused multiply-add
	OpHMMA Opcode = "HMMA" // tensor-core matrix multiply-accumulate
	OpLDG  Opcode = "LDG"  // global load
	OpSTG  Opcode = "STG"  // global store
	OpLDS  Opcode = "LDS"  // shared-memory load
	OpSTS  Opcode = "STS"  // shared-memory store
	OpBRA  Opcode = "BRA"  // branch
	OpEXIT Opcode = "EXIT" // warp exit
)

// IsMemory reports whether the opcode accesses the global memory hierarchy.
func (op Opcode) IsMemory() bool { return op == OpLDG || op == OpSTG }

// IsShared reports whether the opcode accesses shared memory.
func (op Opcode) IsShared() bool { return op == OpLDS || op == OpSTS }

// Valid reports whether the opcode is one the format defines.
func (op Opcode) Valid() bool {
	switch op {
	case OpIMAD, OpFFMA, OpHMMA, OpLDG, OpSTG, OpLDS, OpSTS, OpBRA, OpEXIT:
		return true
	}
	return false
}

// Instr is one dynamic warp instruction.
type Instr struct {
	// Warp is the issuing warp's ID within the invocation.
	Warp int
	// PC is the program counter.
	PC uint64
	// Op is the instruction class.
	Op Opcode
	// ActiveMask is the 32-lane execution mask.
	ActiveMask uint32
	// Addr is the accessed address for memory/shared instructions, 0
	// otherwise.
	Addr uint64
	// Lines is the number of 128-byte lines the warp's lanes touch for a
	// global memory instruction (its coalescing degree): 1 is perfectly
	// coalesced, up to 32 fully scattered. 0 is treated as 1; non-memory
	// instructions ignore it.
	Lines int
}

// Trace is the dynamic instruction stream of one kernel invocation.
type Trace struct {
	// Kernel is the kernel name.
	Kernel string
	// Invocation is the global invocation index within the workload.
	Invocation int
	// Grid and Block are the launch dimensions.
	Grid, Block cudamodel.Dim3
	// Warps is the number of traced warps.
	Warps int
	// Instrs is the instruction stream, ordered per warp (instructions of
	// the same warp appear in program order; different warps interleave).
	Instrs []Instr
}

// Validate checks the trace's structural invariants.
func (t *Trace) Validate() error {
	if t.Kernel == "" {
		return fmt.Errorf("trace: no kernel name")
	}
	if t.Warps <= 0 {
		return fmt.Errorf("trace: %s: non-positive warp count %d", t.Kernel, t.Warps)
	}
	if len(t.Instrs) == 0 {
		return fmt.Errorf("trace: %s: empty instruction stream", t.Kernel)
	}
	for i, ins := range t.Instrs {
		if ins.Warp < 0 || ins.Warp >= t.Warps {
			return fmt.Errorf("trace: %s: instr %d warp %d outside [0, %d)", t.Kernel, i, ins.Warp, t.Warps)
		}
		if !ins.Op.Valid() {
			return fmt.Errorf("trace: %s: instr %d has unknown opcode %q", t.Kernel, i, ins.Op)
		}
		if ins.ActiveMask == 0 {
			return fmt.Errorf("trace: %s: instr %d has empty active mask", t.Kernel, i)
		}
		if ins.Lines < 0 || ins.Lines > 32 {
			return fmt.Errorf("trace: %s: instr %d touches %d lines, want 0..32", t.Kernel, i, ins.Lines)
		}
	}
	return nil
}

// format version written in the header; readers reject newer versions.
const formatVersion = 2

// maxPreallocInstrs bounds the instruction slice Read allocates before it has
// read any instruction line.
const maxPreallocInstrs = 4096

// Write serializes the trace in the plain-text format.
func (t *Trace) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "sieve-trace %d\n", formatVersion)
	fmt.Fprintf(bw, "kernel %s\n", t.Kernel)
	fmt.Fprintf(bw, "invocation %d\n", t.Invocation)
	fmt.Fprintf(bw, "grid %d %d %d\n", t.Grid.X, t.Grid.Y, t.Grid.Z)
	fmt.Fprintf(bw, "block %d %d %d\n", t.Block.X, t.Block.Y, t.Block.Z)
	fmt.Fprintf(bw, "warps %d\n", t.Warps)
	fmt.Fprintf(bw, "instrs %d\n", len(t.Instrs))
	for _, ins := range t.Instrs {
		if ins.Op.IsMemory() {
			lines := ins.Lines
			if lines < 1 {
				lines = 1
			}
			fmt.Fprintf(bw, "%d %x %s %x %x %d\n", ins.Warp, ins.PC, ins.Op, ins.ActiveMask, ins.Addr, lines)
			continue
		}
		if ins.Op.IsShared() {
			fmt.Fprintf(bw, "%d %x %s %x %x\n", ins.Warp, ins.PC, ins.Op, ins.ActiveMask, ins.Addr)
			continue
		}
		fmt.Fprintf(bw, "%d %x %s %x\n", ins.Warp, ins.PC, ins.Op, ins.ActiveMask)
	}
	return bw.Flush()
}

// Read parses a trace previously written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)

	var t Trace
	var nInstrs int
	header := []struct {
		key   string
		parse func(fields []string) error
	}{
		{"sieve-trace", func(f []string) error {
			v, err := strconv.Atoi(f[0])
			if err != nil || v > formatVersion {
				return fmt.Errorf("unsupported trace version %q", f[0])
			}
			return nil
		}},
		{"kernel", func(f []string) error { t.Kernel = f[0]; return nil }},
		{"invocation", func(f []string) error {
			var err error
			t.Invocation, err = strconv.Atoi(f[0])
			return err
		}},
		{"grid", func(f []string) error { return parseDim3(f, &t.Grid) }},
		{"block", func(f []string) error { return parseDim3(f, &t.Block) }},
		{"warps", func(f []string) error {
			var err error
			t.Warps, err = strconv.Atoi(f[0])
			return err
		}},
		{"instrs", func(f []string) error {
			var err error
			nInstrs, err = strconv.Atoi(f[0])
			return err
		}},
	}
	for _, h := range header {
		if !sc.Scan() {
			return nil, fmt.Errorf("trace: truncated header, missing %q", h.key)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != h.key {
			return nil, fmt.Errorf("trace: bad header line %q, want %q", sc.Text(), h.key)
		}
		if err := h.parse(fields[1:]); err != nil {
			return nil, fmt.Errorf("trace: header %q: %w", h.key, err)
		}
	}
	if nInstrs < 0 {
		return nil, fmt.Errorf("trace: negative instruction count %d", nInstrs)
	}

	// The header's count is unchecked input until the lines are read, so it
	// only sizes the first allocation up to maxPreallocInstrs.
	t.Instrs = make([]Instr, 0, min(nInstrs, maxPreallocInstrs))
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: instr line %d: %q too short", line, sc.Text())
		}
		var ins Instr
		var err error
		if ins.Warp, err = strconv.Atoi(fields[0]); err != nil {
			return nil, fmt.Errorf("trace: instr line %d: bad warp: %w", line, err)
		}
		if ins.PC, err = strconv.ParseUint(fields[1], 16, 64); err != nil {
			return nil, fmt.Errorf("trace: instr line %d: bad pc: %w", line, err)
		}
		ins.Op = Opcode(fields[2])
		mask, err := strconv.ParseUint(fields[3], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: instr line %d: bad mask: %w", line, err)
		}
		ins.ActiveMask = uint32(mask)
		if ins.Op.IsMemory() || ins.Op.IsShared() {
			if len(fields) < 5 {
				return nil, fmt.Errorf("trace: instr line %d: memory op missing address", line)
			}
			if ins.Addr, err = strconv.ParseUint(fields[4], 16, 64); err != nil {
				return nil, fmt.Errorf("trace: instr line %d: bad address: %w", line, err)
			}
			// Version 2 adds the coalescing degree for global memory ops;
			// version-1 files omit it and default to 1.
			if ins.Op.IsMemory() {
				ins.Lines = 1
				if len(fields) >= 6 {
					if ins.Lines, err = strconv.Atoi(fields[5]); err != nil {
						return nil, fmt.Errorf("trace: instr line %d: bad line count: %w", line, err)
					}
				}
			}
		}
		t.Instrs = append(t.Instrs, ins)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(t.Instrs) != nInstrs {
		return nil, fmt.Errorf("trace: header promises %d instructions, found %d", nInstrs, len(t.Instrs))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

func parseDim3(fields []string, d *cudamodel.Dim3) error {
	if len(fields) != 3 {
		return fmt.Errorf("want 3 dims, got %d", len(fields))
	}
	vals := make([]int32, 3)
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return err
		}
		vals[i] = int32(v)
	}
	d.X, d.Y, d.Z = vals[0], vals[1], vals[2]
	return nil
}
