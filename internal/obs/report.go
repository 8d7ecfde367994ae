package obs

import (
	"encoding/json"
	"io"
)

// SpanReport is one frozen span: its interval (nanoseconds relative to the
// collector's creation), attributes, counters and children.
type SpanReport struct {
	Name       string           `json:"name"`
	StartNS    int64            `json:"start_ns"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]any   `json:"attrs,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanReport    `json:"children,omitempty"`
}

// Report is one run's complete observability snapshot.
type Report struct {
	Spans []*SpanReport `json:"spans"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Find returns the first span (depth-first, chronological) with the given
// name, or nil. A convenience for tests and report consumers.
func (r *Report) Find(name string) *SpanReport {
	var walk func(spans []*SpanReport) *SpanReport
	walk = func(spans []*SpanReport) *SpanReport {
		for _, s := range spans {
			if s.Name == name {
				return s
			}
			if hit := walk(s.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return walk(r.Spans)
}

// FindAll returns every span (depth-first, chronological) with the given name.
func (r *Report) FindAll(name string) []*SpanReport {
	var out []*SpanReport
	var walk func(spans []*SpanReport)
	walk = func(spans []*SpanReport) {
		for _, s := range spans {
			if s.Name == name {
				out = append(out, s)
			}
			walk(s.Children)
		}
	}
	walk(r.Spans)
	return out
}

// traceEvent is one Chrome trace_viewer "complete" event. Timestamps and
// durations are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteTrace renders the span forest as Chrome trace-event JSON ("complete"
// X events), loadable in chrome://tracing or https://ui.perfetto.dev for a
// flamegraph of the pipeline. Spans that overlap their siblings in time
// (parallel workers) are placed on separate thread lanes so the viewer never
// has to stack concurrent events on one track.
func (r *Report) WriteTrace(w io.Writer) error {
	var events []traceEvent
	nextLane := 1
	newLane := func() int { l := nextLane; nextLane++; return l }

	// laneRec tracks, within one sibling group, when each candidate lane's
	// previous occupant ends. A span nests inside its parent's interval, so
	// the parent's lane is always a candidate (trace viewer stacks
	// time-contained events on one track); only siblings overlapping each
	// other need extra lanes, which are allocated globally fresh so unrelated
	// subtrees never share a track.
	type laneRec struct {
		lane int
		end  int64
	}
	var placeGroup func(spans []*SpanReport, parentLane int)
	placeGroup = func(spans []*SpanReport, parentLane int) {
		lanes := []laneRec{{lane: parentLane}}
		for _, s := range spans {
			pick := -1
			for i := range lanes {
				if lanes[i].end <= s.StartNS {
					pick = i
					break
				}
			}
			if pick == -1 {
				lanes = append(lanes, laneRec{lane: newLane()})
				pick = len(lanes) - 1
			}
			lanes[pick].end = s.StartNS + s.DurationNS

			args := make(map[string]any, len(s.Attrs)+len(s.Counters))
			for k, v := range s.Attrs {
				args[k] = v
			}
			for k, v := range s.Counters {
				args[k] = v
			}
			events = append(events, traceEvent{
				Name:  s.Name,
				Phase: "X",
				TS:    float64(s.StartNS) / 1e3,
				Dur:   float64(s.DurationNS) / 1e3,
				PID:   1,
				TID:   lanes[pick].lane,
				Args:  args,
			})
			placeGroup(s.Children, lanes[pick].lane)
		}
	}
	placeGroup(r.Spans, newLane())
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
