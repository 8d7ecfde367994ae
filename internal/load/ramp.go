// Package load is the sieved load-generation harness behind cmd/sieveload:
// a closed- and open-loop driver that pushes a running sieved (single node
// or peered cluster) through a registry of pluggable workload scenarios,
// records latency per workload × status class, and emits a machine-readable
// benchmark report with the targets' own /metrics deltas attached.
//
// The harness is deliberately built only on the exported api and client
// packages — it exercises exactly the integration surface third parties get.
package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// RampStep is one point of a ramp schedule: from At onward the schedule
// heads toward Target.
type RampStep struct {
	At     time.Duration
	Target float64
}

// Ramp is a piecewise-linear load schedule over elapsed run time, kept
// sorted by offset. Between two steps the target is interpolated linearly,
// so "0:100,30s:1000" climbs smoothly instead of jumping; past the last step
// the final target holds.
type Ramp []RampStep

// ParseRamp parses a schedule like "0:100,30s:1000,2m:5000" — comma-
// separated offset:target pairs. Offsets accept time.ParseDuration forms
// ("30s", "2m", "1m30s") or bare numbers meaning seconds; targets are
// non-negative numbers. A single bare number ("400") is a constant schedule.
func ParseRamp(s string) (Ramp, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("load: empty ramp")
	}
	var r Ramp
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		offS, tgtS, found := strings.Cut(part, ":")
		if !found {
			// Bare number: constant target from t=0.
			tgtS, offS = part, "0"
		}
		off, err := parseOffset(offS)
		if err != nil {
			return nil, fmt.Errorf("load: ramp step %q: %w", part, err)
		}
		tgt, err := strconv.ParseFloat(strings.TrimSpace(tgtS), 64)
		if err != nil || math.IsNaN(tgt) || tgt < 0 {
			return nil, fmt.Errorf("load: ramp step %q: bad target %q", part, tgtS)
		}
		r = append(r, RampStep{At: off, Target: tgt})
	}
	if len(r) == 0 {
		return nil, fmt.Errorf("load: empty ramp")
	}
	sort.SliceStable(r, func(a, b int) bool { return r[a].At < r[b].At })
	for i := 1; i < len(r); i++ {
		if r[i].At == r[i-1].At {
			return nil, fmt.Errorf("load: duplicate ramp offset %s", r[i].At)
		}
	}
	return r, nil
}

// parseOffset accepts "30s"/"2m"/"1m30s" duration forms or a bare number of
// seconds ("0", "45", "1.5").
func parseOffset(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		if secs < 0 {
			return 0, fmt.Errorf("negative offset %q", s)
		}
		return time.Duration(secs * float64(time.Second)), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad offset %q", s)
	}
	return d, nil
}

// TargetAt returns the scheduled target at the given elapsed time: the first
// step's target before the schedule begins, linear interpolation between
// steps, and the last step's target thereafter.
func (r Ramp) TargetAt(elapsed time.Duration) float64 {
	if len(r) == 0 {
		return 0
	}
	if elapsed <= r[0].At {
		return r[0].Target
	}
	for i := 1; i < len(r); i++ {
		if elapsed < r[i].At {
			prev, next := r[i-1], r[i]
			frac := float64(elapsed-prev.At) / float64(next.At-prev.At)
			return prev.Target + frac*(next.Target-prev.Target)
		}
	}
	return r[len(r)-1].Target
}

// Peak returns the schedule's maximum target.
func (r Ramp) Peak() float64 {
	var peak float64
	for _, s := range r {
		if s.Target > peak {
			peak = s.Target
		}
	}
	return peak
}

// String renders the schedule back in the parseable offset:target form.
func (r Ramp) String() string {
	parts := make([]string, len(r))
	for i, s := range r {
		parts[i] = fmt.Sprintf("%s:%g", s.At, s.Target)
	}
	return strings.Join(parts, ",")
}
