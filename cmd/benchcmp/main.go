// Command benchcmp compares two benchmark recordings produced by
// `go test -json -bench` (the BENCH_*.json files this repo checks in) and
// prints per-benchmark deltas. It is a dependency-free stand-in for
// benchstat: no distribution statistics, just old → new with percentage
// change per unit. A benchmark run several times (-count N, as the Makefile
// records) is reduced to the median of its runs for each unit.
//
// Usage:
//
//	go run ./cmd/benchcmp OLD.json NEW.json
//
// Exit status is 0 whenever both files parse; deltas are informational (CI
// runs benches at -benchtime=1x to catch rot, not to gate on timing).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp OLD.json NEW.json")
		os.Exit(2)
	}
	old, err := parseFile(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	new_, err := parseFile(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", os.Args[2], err)
		os.Exit(1)
	}
	report(os.Stdout, old, new_)
}

// result is one benchmark line: its iteration count plus every
// value-with-unit pair (ns/op, B/op, allocs/op, custom metrics).
type result struct {
	name       string
	iterations int64
	values     map[string]float64
}

// parseFile reads a `go test -json` event stream (or plain `go test -bench`
// text output) and returns the benchmark results in order of appearance.
func parseFile(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) ([]result, error) {
	// go test -json flushes benchmark output in fragments — the name ("
	// BenchmarkX \t") and the measurements ("5\t123 ns/op\n") arrive as
	// separate output events — so the events' text is reassembled first and
	// only then split into lines. Plain `go test -bench` output takes the
	// same path unchanged, so older recordings stay comparable.
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Action string
				Output string
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("malformed test event: %w", err)
			}
			if ev.Action == "output" {
				text.WriteString(ev.Output)
			}
			continue
		}
		text.WriteString(line)
		text.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var results []result
	for _, line := range strings.Split(text.String(), "\n") {
		if res, ok := parseBenchLine(line); ok {
			results = append(results, res)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return results, nil
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkKDEGrid/silverman/binned-8   500   2341 ns/op   0 B/op   0 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from the name so recordings
// from machines with different core counts line up.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{name: trimProcSuffix(fields[0]), iterations: iters, values: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		res.values[fields[i+1]] = v
	}
	if len(res.values) == 0 {
		return result{}, false
	}
	return res, true
}

// trimProcSuffix drops the trailing -N core-count suffix from a benchmark
// name, if present.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// unitOrder fixes the display order for the standard units; custom metrics
// follow alphabetically.
var unitOrder = []string{"ns/op", "B/op", "allocs/op"}

// report prints one section per unit present in both recordings, with a row
// per benchmark name they share.
func report(w io.Writer, old, new_ []result) {
	old, new_ = medians(old), medians(new_)
	oldBy := byName(old)
	newBy := byName(new_)

	units := sharedUnits(old, new_)
	for _, unit := range units {
		type row struct {
			name     string
			old, new float64
		}
		var rows []row
		for _, o := range old {
			n, ok := newBy[o.name]
			if !ok {
				continue
			}
			ov, okO := o.values[unit]
			nv, okN := n.values[unit]
			if okO && okN {
				rows = append(rows, row{o.name, ov, nv})
			}
		}
		if len(rows) == 0 {
			continue
		}
		width := len("name")
		for _, r := range rows {
			if len(r.name) > width {
				width = len(r.name)
			}
		}
		fmt.Fprintf(w, "\n%-*s  %14s  %14s  %8s   [%s]\n", width, "name", "old", "new", "delta", unit)
		for _, r := range rows {
			fmt.Fprintf(w, "%-*s  %14s  %14s  %8s\n", width, r.name, formatValue(r.old), formatValue(r.new), delta(r.old, r.new))
		}
	}
	var onlyOld, onlyNew []string
	for _, o := range old {
		if _, ok := newBy[o.name]; !ok {
			onlyOld = append(onlyOld, o.name)
		}
	}
	for _, n := range new_ {
		if _, ok := oldBy[n.name]; !ok {
			onlyNew = append(onlyNew, n.name)
		}
	}
	if len(onlyOld) > 0 {
		fmt.Fprintf(w, "\nonly in old: %s\n", strings.Join(onlyOld, ", "))
	}
	if len(onlyNew) > 0 {
		fmt.Fprintf(w, "\nonly in new: %s\n", strings.Join(onlyNew, ", "))
	}
}

// medians collapses repeated runs of a benchmark into one result, in order
// of first appearance, holding the median of each unit over the runs that
// report it (the mean of the middle two for an even count).
func medians(rs []result) []result {
	var out []result
	runs := map[string][]result{}
	for _, r := range rs {
		if _, seen := runs[r.name]; !seen {
			out = append(out, result{name: r.name, values: map[string]float64{}})
		}
		runs[r.name] = append(runs[r.name], r)
	}
	for i := range out {
		group := runs[out[i].name]
		out[i].iterations = group[0].iterations
		for unit := range group[0].values {
			var vs []float64
			for _, r := range group {
				if v, ok := r.values[unit]; ok {
					vs = append(vs, v)
				}
			}
			sort.Float64s(vs)
			mid := len(vs) / 2
			out[i].values[unit] = vs[mid]
			if len(vs)%2 == 0 {
				out[i].values[unit] = (vs[mid-1] + vs[mid]) / 2
			}
		}
	}
	return out
}

func byName(rs []result) map[string]result {
	m := make(map[string]result, len(rs))
	for _, r := range rs {
		m[r.name] = r
	}
	return m
}

// sharedUnits returns the units to report: the standard trio first, then any
// custom metrics both recordings contain, in old-recording order.
func sharedUnits(old, new_ []result) []string {
	has := func(rs []result, unit string) bool {
		for _, r := range rs {
			if _, ok := r.values[unit]; ok {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var units []string
	for _, u := range unitOrder {
		if has(old, u) && has(new_, u) {
			units = append(units, u)
			seen[u] = true
		}
	}
	for _, r := range old {
		for u := range r.values {
			if !seen[u] && has(new_, u) {
				units = append(units, u)
				seen[u] = true
			}
		}
	}
	// Map iteration order above is nondeterministic; sort the custom tail.
	tail := units[lenStd(units):]
	sortStrings(tail)
	return units
}

func lenStd(units []string) int {
	n := 0
	for _, u := range units {
		for _, s := range unitOrder {
			if u == s {
				n++
			}
		}
	}
	return n
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// delta formats the old → new change as a signed percentage; "~" when old is
// zero (no baseline to compare against).
func delta(old, new_ float64) string {
	if old == 0 {
		if new_ == 0 {
			return "0.00%"
		}
		return "~"
	}
	return fmt.Sprintf("%+.2f%%", 100*(new_-old)/old)
}

// formatValue renders a metric compactly: integers without decimals, large
// values with thousands grouping left to the reader.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
