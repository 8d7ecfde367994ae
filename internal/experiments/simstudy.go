package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/sim"
	"github.com/gpusampling/sieve/internal/trace"
)

// Section V-G of the paper: the selected kernel invocations are traced
// (SASS plain-text files) and simulated — serially on one core or with each
// trace dispatched to a separate core, where total time is determined by the
// longest-running kernel invocation. This study reproduces that workflow on
// the trace-driven simulator for a subset of workloads.

// SimStudyRow summarizes tracing + detailed simulation for one workload.
type SimStudyRow struct {
	Name            string
	Representatives int
	WarpInstrs      int
	// SerialWall and ParallelWall are host wall-clock simulation times.
	SerialWall, ParallelWall time.Duration
	// LongestSMCycles is the slowest representative (the parallel-dispatch
	// critical path).
	LongestSMCycles uint64
	// TotalGPUCycles is the summed estimated GPU cycles of the
	// representatives.
	TotalGPUCycles float64
}

// simStudyWorkloads is the subset traced and simulated; chosen to cover
// short (gst), medium and kernel-heavy workloads without making the study
// dominate the experiment run.
var simStudyWorkloads = []string{"gst", "gms", "gru", "bert"}

// SimStudy traces the representatives of a few workloads and simulates them
// serially and in parallel, like the paper's Section V-G.
func (r *Runner) SimStudy(maxWarpInstrs int) ([]SimStudyRow, error) {
	if maxWarpInstrs <= 0 {
		maxWarpInstrs = 20000
	}
	simulator, err := sim.New(gpu.Ampere())
	if err != nil {
		return nil, err
	}
	var rows []SimStudyRow
	for _, name := range simStudyWorkloads {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		var traces []*trace.Trace
		row := SimStudyRow{Name: name}
		for _, idx := range p.plans[core.MethodSieve].RepresentativeIndices() {
			tr, err := trace.Generate(&p.w.Invocations[idx], maxWarpInstrs, r.cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("%s: trace invocation %d: %w", name, idx, err)
			}
			traces = append(traces, tr)
			row.WarpInstrs += len(tr.Instrs)
		}
		row.Representatives = len(traces)

		start := time.Now()
		serial, err := simulator.SimulateParallel(traces, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: serial simulation: %w", name, err)
		}
		row.SerialWall = time.Since(start)

		start = time.Now()
		if _, err := simulator.SimulateParallel(traces, runtime.GOMAXPROCS(0)); err != nil {
			return nil, fmt.Errorf("%s: parallel simulation: %w", name, err)
		}
		row.ParallelWall = time.Since(start)

		for _, res := range serial {
			row.TotalGPUCycles += res.Cycles
			if res.SMCycles > row.LongestSMCycles {
				row.LongestSMCycles = res.SMCycles
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSimStudy formats the deterministic part of the Section V-G study;
// the host wall-clock times are in RenderSimWall.
func RenderSimStudy(rows []SimStudyRow) *Table {
	t := &Table{
		Title:  "Section V-G: tracing + detailed simulation of the selected invocations",
		Header: []string{"workload", "reps", "warp instrs", "longest rep (SM cycles)", "GPU cycles"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.Representatives),
			fmt.Sprintf("%d", row.WarpInstrs),
			fmt.Sprintf("%d", row.LongestSMCycles),
			fmt.Sprintf("%.3g", row.TotalGPUCycles),
		})
	}
	t.Notes = append(t.Notes,
		"paper: each representative's trace is a standalone plain-text file, so parallel",
		"simulation time is determined by the longest-running kernel invocation")
	return t
}

// RenderSimWall formats the Section V-G study's host wall-clock simulation
// times. They vary from run to run, so cmd/experiments prints them apart
// from the reproducible tables.
func RenderSimWall(rows []SimStudyRow) *Table {
	t := &Table{
		Title:  "Section V-G: host wall-clock simulation time",
		Header: []string{"workload", "serial wall", "parallel wall"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name,
			row.SerialWall.Round(time.Millisecond).String(),
			row.ParallelWall.Round(time.Millisecond).String(),
		})
	}
	return t
}
