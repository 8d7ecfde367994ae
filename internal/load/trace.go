package load

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
)

// traceSampleCap bounds how many sampled trace ids the run retains for the
// post-run fetch. The retained set is a rolling window of the newest ids:
// the server keeps sampled span trees in a bounded ring (256 by default,
// apart from its unsampled traffic) that overwrites oldest-first, so only
// the most recent samples can still be resident when the run ends —
// remembering early ids would only manufacture fetch misses.
const traceSampleCap = 256

// traceCtx implements trace sampling: every cfg.TraceEvery-th request of a
// worker carries a deterministic minted trace id (drawn from the worker's own
// RNG, so a re-run with the same seed samples the same request positions).
// The newest traceSampleCap sampled ids are remembered for the post-run
// attribution fetch.
func (r *Runner) traceCtx(ctx context.Context, wk *Worker) context.Context {
	if r.cfg.TraceEvery <= 0 {
		return ctx
	}
	n := wk.reqs
	wk.reqs++
	if n%r.cfg.TraceEvery != 0 {
		return ctx
	}
	id := fmt.Sprintf("%016x%016x", wk.RNG.Uint64(), wk.RNG.Uint64())
	r.traceMu.Lock()
	if len(r.traceIDs) < traceSampleCap {
		r.traceIDs = append(r.traceIDs, id)
	} else {
		r.traceIDs[r.traceSeq%traceSampleCap] = id
	}
	r.traceSeq++
	r.traceMu.Unlock()
	return client.WithTraceID(ctx, id)
}

// fetchAttribution retrieves the run's sampled traces from the targets and
// folds their per-stage durations into the latency-attribution summary.
// Returns nil when the run sampled nothing (TraceEvery 0 or no requests).
//
// A proxied request leaves a trace on every replica it touched under the
// same id; the one with the longest duration is the front replica's — it
// covers the whole request including the peer hop — so that is the one
// attributed. An id no target still holds (overwritten in its bounded store)
// counts as a fetch error, not a failure.
func (r *Runner) fetchAttribution(ctx context.Context) *TraceAttribution {
	r.traceMu.Lock()
	ids := append([]string(nil), r.traceIDs...)
	r.traceMu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	att := &TraceAttribution{Sampled: len(ids), Stages: make(map[string]StageStat)}
	stageNS := make(map[string][]float64)
	stageTotal := make(map[string]float64)
	var wallTotal float64
	for _, id := range ids {
		var best *api.Trace
		for _, c := range r.env.Clients {
			t, err := c.GetTrace(ctx, id)
			if err != nil {
				continue
			}
			if best == nil || t.DurationNS > best.DurationNS {
				best = t
			}
		}
		if best == nil {
			att.FetchErrors++
			continue
		}
		att.Fetched++
		wallTotal += float64(best.DurationNS)
		for stage, ns := range best.StageNS {
			stageNS[stage] = append(stageNS[stage], float64(ns))
			stageTotal[stage] += float64(ns)
		}
	}
	for stage, samples := range stageNS {
		sort.Float64s(samples)
		share := 0.0
		if wallTotal > 0 {
			share = stageTotal[stage] / wallTotal
		}
		att.Stages[stage] = StageStat{
			Samples: len(samples),
			P50MS:   quantileSorted(samples, 0.50) / 1e6,
			P99MS:   quantileSorted(samples, 0.99) / 1e6,
			Share:   share,
		}
	}
	return att
}

// quantileSorted reads the p-quantile from an ascending sample slice by
// nearest-rank (0 for an empty slice).
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Table renders the attribution as an aligned text table, stages sorted by
// wall-time share (largest first), for the harness's human-readable output.
func (a *TraceAttribution) Table() string {
	if a == nil || len(a.Stages) == 0 {
		return ""
	}
	type row struct {
		name string
		st   StageStat
	}
	rows := make([]row, 0, len(a.Stages))
	for name, st := range a.Stages {
		rows = append(rows, row{name, st})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.Share != rows[j].st.Share {
			return rows[i].st.Share > rows[j].st.Share
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "stage latency attribution (%d/%d traces fetched, %d evicted)\n",
		a.Fetched, a.Sampled, a.FetchErrors)
	fmt.Fprintf(&b, "  %-8s %8s %10s %10s %7s\n", "stage", "samples", "p50_ms", "p99_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %8d %10.3f %10.3f %6.1f%%\n",
			r.name, r.st.Samples, r.st.P50MS, r.st.P99MS, r.st.Share*100)
	}
	return b.String()
}
