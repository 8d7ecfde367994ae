package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// verdict is the outcome of comparing one metric, or one workload, between
// a parent commit's runs and a change's runs.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies the pair rule to one lower-is-better metric. parent[i] and
// change[i] form pair i. The change improved when it wins at least 9/10 of
// the pairs (ties count for neither side) and its median beats the parent's
// by more than the parent's interquartile range. It regressed when its
// median exceeds the parent's by more than bound (any increase when bound
// is 0). Otherwise it is unresolved when the parent's spread is wider than
// the bound, unless every change run beats every parent run, and unchanged
// when it is not.
func judge(parent, change []float64, bound float64) verdict {
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if change[i] < parent[i] {
			wins++
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && pm-cm > iqr:
		return improved
	case cm > pm*(1+bound):
		return regressed
	case bound > 0 && iqr > bound*pm && !(maxOf(change) < minOf(parent)):
		return unresolved
	default:
		return unchanged
	}
}

// workloadVerdict folds metric verdicts: any regression, else any
// unresolved metric, else any improvement, else unchanged.
func workloadVerdict(vs []verdict) verdict {
	for _, want := range []verdict{regressed, unresolved, improved} {
		for _, v := range vs {
			if v == want {
				return want
			}
		}
	}
	return unchanged
}

// compareMain implements `sievebench compare <parent results…> --
// <change results…>`: it pairs the i-th parent result with the i-th change
// result and prints one row per workload, with each end-to-end metric's
// medians, the parent's interquartile range and verdict. It returns 1 when
// any workload regressed.
func compareMain(out io.Writer, args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(out, "usage: sievebench compare <parent results…> -- <change results…>")
		return 2
	}
	parent, err := collect(args[:split])
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	change, err := collect(args[split+1:])
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		p, c := parent[w.name], change[w.name]
		if p == nil || c == nil {
			continue
		}
		var vs []verdict
		var details []string
		for _, d := range append(append([]metricDef(nil), endToEnd...), p99Latency, errRate) {
			pv, cv := p[d.name], c[d.name]
			if len(pv) < 2 || len(cv) < 2 {
				continue
			}
			v := judge(pv, cv, d.bound)
			vs = append(vs, v)
			q1, q3 := quartiles(pv)
			details = append(details, fmt.Sprintf("%s %.4g→%.4g (iqr %.3g, bound %g%%) %s",
				d.name, median(pv), median(cv), q3-q1, 100*d.bound, v))
		}
		if len(vs) == 0 {
			continue
		}
		v := workloadVerdict(vs)
		if v == regressed {
			status = 1
		}
		fmt.Fprintf(out, "%-17s %-10s %s\n", w.name, v, strings.Join(details, "; "))
	}
	return status
}

// collect reads result files and gathers each workload's metric values in
// file order, so equal positions in two collections form pairs.
func collect(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		for _, w := range r.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				out[w.Name][name] = append(out[w.Name][name], m.Value)
			}
		}
	}
	return out, nil
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}
