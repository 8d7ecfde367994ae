// Package sim is a trace-driven, cycle-level GPU simulator in the spirit of
// Accel-sim: it replays SASS-like traces (package trace) through a model of
// one streaming multiprocessor with warp scheduling, opcode latencies, an
// L1/L2 cache hierarchy and a bandwidth-limited DRAM, and extrapolates
// whole-GPU cycles from the per-SM result.
//
// It exists for the paper's Section V-G workflow: after Sieve selects
// representative kernel invocations, only their traces are simulated —
// serially on one core or dispatched in parallel, where total time is set by
// the longest-running kernel.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/trace"
)

// Latencies for the opcode classes, in core cycles. Values follow published
// microbenchmark ranges for Turing/Ampere-class parts.
const (
	latALU    = 4
	latFP     = 4
	latTensor = 16
	latBranch = 6
	latShared = 22
	latL1     = 28
	latL2     = 190
	latDRAM   = 420
)

// cache geometry
const (
	lineBytes = 128
	l1Bytes   = 128 << 10
	l1Ways    = 4
	l2Ways    = 16
)

// memSystem bundles the shared part of the memory hierarchy: the L2, the
// DRAM channel, and the MSHR-style in-flight miss table that merges
// concurrent requests to the same line (a second requester waits for the
// outstanding fill instead of consuming DRAM bandwidth again).
type memSystem struct {
	l2         *cache
	inFlight   map[uint64]uint64 // line -> fill-completion cycle
	dramFreeAt uint64
	dramEvery  uint64

	l1Hits, l1Refs int
	l2Hits, l2Refs int
}

func newMemSystem(arch gpu.Arch) *memSystem {
	return &memSystem{
		l2:        newCache(int(arch.L2Bytes)/lineBytes/l2Ways, l2Ways),
		inFlight:  make(map[uint64]uint64),
		dramEvery: uint64(lineBytes/arch.BytesPerCycle()) + 1,
	}
}

// access serves one line through the hierarchy (private L1, shared L2,
// MSHR-merged DRAM) and returns its latency from cycle. An L2 miss installs
// the line only once its DRAM fill completes; until then concurrent
// requesters merge onto the outstanding fill instead of consuming DRAM
// bandwidth again.
func (m *memSystem) access(l1 *cache, line, cycle uint64) uint64 {
	m.l1Refs++
	if l1.access(line) {
		m.l1Hits++
		return latL1
	}
	m.l2Refs++
	if fillAt, ok := m.inFlight[line]; ok {
		if fillAt > cycle {
			// Merged with the outstanding fill.
			return fillAt - cycle
		}
		// The fill has completed: install the line.
		delete(m.inFlight, line)
		m.l2.insert(line)
	}
	if m.l2.lookup(line) {
		m.l2Hits++
		return latL2
	}
	start := cycle
	if m.dramFreeAt > start {
		start = m.dramFreeAt
	}
	m.dramFreeAt = start + m.dramEvery
	lat := (start - cycle) + latDRAM
	m.inFlight[line] = cycle + lat
	return lat
}

// Result summarizes one simulated trace.
type Result struct {
	// Kernel and Invocation identify the simulated trace.
	Kernel     string
	Invocation int
	// Cycles is the estimated whole-GPU cycle count for the invocation.
	Cycles float64
	// SMCycles is the simulated cycle count of the modeled SM.
	SMCycles uint64
	// WarpInstructions is the number of executed warp instructions.
	WarpInstructions int
	// IPC is warp instructions per SM cycle on the modeled SM.
	IPC float64
	// L1HitRate and L2HitRate summarize the memory hierarchy behaviour.
	L1HitRate, L2HitRate float64
}

// Simulator replays traces against one architecture.
type Simulator struct {
	arch gpu.Arch
}

// New returns a Simulator for the architecture.
func New(arch gpu.Arch) (*Simulator, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{arch: arch}, nil
}

// Arch returns the simulated architecture.
func (s *Simulator) Arch() gpu.Arch { return s.arch }

// Simulate replays one trace on one modeled SM and returns its result.
func (s *Simulator) Simulate(t *trace.Trace) (*Result, error) {
	e, err := s.newEngine(t, 1)
	if err != nil {
		return nil, err
	}
	e.run(math.MaxInt)
	return e.result(t), nil
}

// SimulateParallel replays the traces across workers goroutines (each trace
// file dispatched to a separate core, as in Section V-G); workers = 1 is the
// serial run and workers ≤ 0 uses GOMAXPROCS. Results are returned in input
// order, and a failing trace's error names its kernel and invocation.
func (s *Simulator) SimulateParallel(traces []*trace.Trace, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(traces))
	out := make([]*Result, len(traces))
	errs := make([]error, len(traces))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(traces) {
					return
				}
				out[i], errs[i] = s.Simulate(traces[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: trace %d (%s/%d): %w", i, traces[i].Kernel, traces[i].Invocation, err)
		}
	}
	return out, nil
}

// --- the warp-issue engine -------------------------------------------------------

// engine is the one warp-issue loop behind every simulation mode. It deals a
// trace's warps round-robin onto its SMs; each SM has a private L1 and its own
// issue slots, and all SMs share one memSystem. Each cycle visits the SMs in
// order, and on each SM issues up to IssuePerSM ready warps, scanning from a
// round-robin pointer. An SM ends on the cycle after its last issue, so a run
// to completion ends on the cycle after the trace's last issue.
type engine struct {
	arch  gpu.Arch
	sms   []smState
	mem   *memSystem
	cycle uint64
	// remaining counts warps with instructions left; executed counts issued
	// warp instructions.
	remaining, executed int
}

// smState is one modeled SM: its share of the warps and its private L1.
type smState struct {
	warps     []warpState
	l1        *cache
	rr        int    // round-robin scan start
	remaining int    // warps with instructions left
	end       uint64 // the cycle after the SM's last issue
}

// warpState tracks one in-flight warp.
type warpState struct {
	instrs  []trace.Instr // the warp's stream in program order
	next    int           // index of the next instruction in instrs
	readyAt uint64        // cycle at which the warp may issue again
}

// newEngine validates the trace and deals its warps onto nSMs SMs, warp w to
// SM w mod nSMs.
func (s *Simulator) newEngine(t *trace.Trace, nSMs int) (*engine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Split the stream per warp, preserving program order, into one backing
	// array.
	start := make([]int, t.Warps+1)
	for i := range t.Instrs {
		start[t.Instrs[i].Warp+1]++
	}
	for w := 0; w < t.Warps; w++ {
		start[w+1] += start[w]
	}
	instrs := make([]trace.Instr, len(t.Instrs))
	fill := append([]int(nil), start[:t.Warps]...)
	for i := range t.Instrs {
		w := t.Instrs[i].Warp
		instrs[fill[w]] = t.Instrs[i]
		fill[w]++
	}

	e := &engine{arch: s.arch, sms: make([]smState, nSMs), mem: newMemSystem(s.arch)}
	for i := range e.sms {
		sm := &e.sms[i]
		sm.l1 = newCache(l1Bytes/lineBytes/l1Ways, l1Ways)
		sm.warps = make([]warpState, 0, (t.Warps-i+nSMs-1)/nSMs)
		for w := i; w < t.Warps; w += nSMs {
			ws := warpState{instrs: instrs[start[w]:start[w+1]]}
			if len(ws.instrs) > 0 {
				sm.remaining++
			}
			sm.warps = append(sm.warps, ws)
		}
		e.remaining += sm.remaining
	}
	return e, nil
}

// run simulates whole cycles until at least budget warp instructions have
// issued or the trace is finished, and returns how many issued.
func (e *engine) run(budget int) (ran int) {
	width := max(int(e.arch.IssuePerSM), 1)
	for e.remaining > 0 && ran < budget {
		issued := 0
		for i := range e.sms {
			if e.sms[i].remaining > 0 {
				issued += e.issue(&e.sms[i], width)
			}
		}
		ran += issued
		if issued == 0 {
			// Nothing ready on any SM: jump to the earliest wake-up instead
			// of stepping cycle by cycle.
			e.cycle = e.nextWake()
			continue
		}
		e.cycle++
	}
	return ran
}

// issue runs one cycle of one SM: up to width ready warps issue, scanning
// from the SM's round-robin pointer, which then advances by one.
func (e *engine) issue(sm *smState, width int) (issued int) {
	n := len(sm.warps)
	w := sm.rr
	for scanned := 0; scanned < n && issued < width; scanned++ {
		ws := &sm.warps[w]
		if ws.next < len(ws.instrs) && ws.readyAt <= e.cycle {
			ws.readyAt = e.cycle + e.latency(&ws.instrs[ws.next], sm.l1)
			ws.next++
			issued++
			if ws.next == len(ws.instrs) {
				sm.remaining--
				e.remaining--
			}
		}
		if w++; w == n {
			w = 0
		}
	}
	if sm.rr++; sm.rr == n {
		sm.rr = 0
	}
	if issued > 0 {
		e.executed += issued
		sm.end = e.cycle + 1
	}
	return issued
}

// nextWake returns the earliest cycle at which a waiting warp becomes ready.
func (e *engine) nextWake() uint64 {
	wake := ^uint64(0)
	for i := range e.sms {
		warps := e.sms[i].warps
		for w := range warps {
			if warps[w].next < len(warps[w].instrs) && warps[w].readyAt < wake {
				wake = warps[w].readyAt
			}
		}
	}
	return wake
}

// latency computes an instruction's issue-to-ready latency, updating the
// memory-system state for memory operations.
func (e *engine) latency(ins *trace.Instr, l1 *cache) uint64 {
	switch {
	case ins.Op == trace.OpEXIT:
		return 1
	case ins.Op == trace.OpBRA:
		return latBranch
	case ins.Op == trace.OpHMMA:
		return latTensor
	case ins.Op == trace.OpFFMA:
		return latFP
	case ins.Op.IsShared():
		return latShared
	case ins.Op.IsMemory():
		// An uncoalesced warp access touches several lines; the sectors are
		// fetched in parallel where possible, so the warp's latency is the
		// worst line's, while every DRAM line consumes channel bandwidth.
		lines := max(ins.Lines, 1)
		var worst uint64 = latL1
		for l := 0; l < lines; l++ {
			line := ins.Addr/lineBytes + uint64(l)
			if lat := e.mem.access(l1, line, e.cycle); lat > worst {
				worst = lat
			}
		}
		return worst
	default:
		return latALU
	}
}

// result snapshots the engine into a Result for trace t. The modeled SMs
// execute the traced warps; a full launch spreads its CTAs across all of the
// architecture's SMs, so whole-GPU cycles scale with the waves of
// equal-shaped warps the untraced work adds.
func (e *engine) result(t *trace.Trace) *Result {
	res := &Result{
		Kernel:           t.Kernel,
		Invocation:       t.Invocation,
		SMCycles:         e.cycle,
		WarpInstructions: e.executed,
	}
	if e.cycle > 0 {
		res.IPC = float64(e.executed) / float64(e.cycle)
	}
	if e.mem.l1Refs > 0 {
		res.L1HitRate = float64(e.mem.l1Hits) / float64(e.mem.l1Refs)
	}
	if e.mem.l2Refs > 0 {
		res.L2HitRate = float64(e.mem.l2Hits) / float64(e.mem.l2Refs)
	}
	totalWarps := float64(t.Grid.Count()) * float64((t.Block.Count()+31)/32)
	waves := totalWarps / (float64(t.Warps) / float64(len(e.sms)) * float64(e.arch.SMs))
	if waves < 1 {
		waves = 1
	}
	res.Cycles = float64(e.cycle)*waves + e.arch.LaunchOverheadCycles
	return res
}

// --- simple set-associative LRU cache ------------------------------------------

type cache struct {
	sets int
	ways int
	tags []uint64 // sets × ways, 0 = empty
	age  []uint64
	tick uint64
}

func newCache(sets, ways int) *cache {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	return &cache{
		sets: sets,
		ways: ways,
		tags: make([]uint64, sets*ways),
		age:  make([]uint64, sets*ways),
	}
}

// lookup reports whether the line is resident, refreshing its recency on a
// hit without inserting on a miss.
func (c *cache) lookup(line uint64) bool {
	c.tick++
	tag := line + 1
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			c.age[i] = c.tick
			return true
		}
	}
	return false
}

// insert installs the line, evicting the set's LRU way if needed.
func (c *cache) insert(line uint64) {
	c.tick++
	tag := line + 1
	set := int(line % uint64(c.sets))
	base := set * c.ways
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			c.age[i] = c.tick
			return
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = tag
	c.age[victim] = c.tick
}

// access looks line up, inserting on miss; reports hit.
func (c *cache) access(line uint64) bool {
	c.tick++
	tag := line + 1 // shift so 0 means empty
	set := int(line % uint64(c.sets))
	base := set * c.ways
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			c.age[i] = c.tick
			return true
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = tag
	c.age[victim] = c.tick
	return false
}
