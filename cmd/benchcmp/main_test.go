package main

import (
	"strings"
	"testing"
)

const oldStream = `{"Action":"start","Package":"example"}
{"Action":"output","Package":"example","Output":"BenchmarkKDEGrid/silverman/per-point-8 \t       1\t317301295 ns/op\t  163840 B/op\t       2 allocs/op\n"}
{"Action":"output","Package":"example","Output":"BenchmarkStratify/sequential-8 \t       1\t21500000 ns/op\t 1847608 B/op\t    1221 allocs/op\t     24731 invocations\n"}
{"Action":"output","Package":"example","Output":"BenchmarkGone-8 \t       1\t100 ns/op\n"}
{"Action":"output","Package":"example","Output":"ok  \texample\t1.0s\n"}
`

const newStream = `{"Action":"output","Package":"example","Output":"BenchmarkKDEGrid/silverman/per-point-8 \t     100\t31730129 ns/op\t  163840 B/op\t       2 allocs/op\n"}
{"Action":"output","Package":"example","Output":"BenchmarkStratify/sequential-8 \t     100\t19300000 ns/op\t 1640000 B/op\t     900 allocs/op\t     24731 invocations\n"}
{"Action":"output","Package":"example","Output":"BenchmarkFresh-8 \t     100\t50 ns/op\n"}
`

func mustParse(t *testing.T, stream string) []result {
	t.Helper()
	rs, err := parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestParseExtractsBenchmarkLines(t *testing.T) {
	rs := mustParse(t, oldStream)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rs))
	}
	first := rs[0]
	if first.name != "BenchmarkKDEGrid/silverman/per-point" {
		t.Fatalf("name %q: GOMAXPROCS suffix not stripped", first.name)
	}
	if first.iterations != 1 {
		t.Fatalf("iterations %d, want 1", first.iterations)
	}
	if first.values["ns/op"] != 317301295 {
		t.Fatalf("ns/op %v", first.values["ns/op"])
	}
	if rs[1].values["invocations"] != 24731 {
		t.Fatalf("custom metric lost: %v", rs[1].values)
	}
}

// TestParseReassemblesSplitEvents covers the shape `go test -json` actually
// emits: the benchmark name and its measurements arrive as separate output
// events and must be stitched back into one line before parsing.
func TestParseReassemblesSplitEvents(t *testing.T) {
	stream := `{"Action":"output","Package":"example","Output":"BenchmarkSplit/case-8 \t"}
{"Action":"output","Package":"example","Output":"     500\t      2000 ns/op\t       0 B/op\t       0 allocs/op\n"}
`
	rs := mustParse(t, stream)
	if len(rs) != 1 {
		t.Fatalf("parsed %d results, want 1", len(rs))
	}
	if rs[0].name != "BenchmarkSplit/case" || rs[0].iterations != 500 || rs[0].values["ns/op"] != 2000 {
		t.Fatalf("split-event result: %+v", rs[0])
	}
}

func TestParsePlainTextOutput(t *testing.T) {
	rs := mustParse(t, "BenchmarkX-4   200   500 ns/op\nPASS\n")
	if len(rs) != 1 || rs[0].name != "BenchmarkX" || rs[0].values["ns/op"] != 500 {
		t.Fatalf("plain-text parse: %+v", rs)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader(`{"Action":"output","Output":"PASS\n"}`)); err == nil {
		t.Fatal("want error for a stream with no benchmark lines")
	}
}

func TestReportDeltasAndCoverage(t *testing.T) {
	old := mustParse(t, oldStream)
	new_ := mustParse(t, newStream)
	var buf strings.Builder
	report(&buf, old, new_)
	out := buf.String()

	for _, want := range []string{
		"-90.00%", // KDE ns/op 317301295 → 31730129
		"[ns/op]", "[B/op]", "[allocs/op]", "[invocations]",
		"only in old: BenchmarkGone",
		"only in new: BenchmarkFresh",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportTakesMedianOfRepeatedRuns pins the -count N handling: each
// side's runs of one benchmark collapse to their median before the delta.
func TestReportTakesMedianOfRepeatedRuns(t *testing.T) {
	old := mustParse(t, "BenchmarkX-2 \t 5\t100 ns/op\nBenchmarkX-2 \t 5\t900 ns/op\nBenchmarkX-2 \t 5\t200 ns/op\n")
	new_ := mustParse(t, "BenchmarkX-2 \t 5\t50 ns/op\nBenchmarkX-2 \t 5\t150 ns/op\n")
	var buf strings.Builder
	report(&buf, old, new_)
	out := buf.String()
	// Medians 200 (odd count) and 100 (mean of the middle two): -50%, one row.
	if !strings.Contains(out, "-50.00%") || strings.Count(out, "BenchmarkX") != 1 {
		t.Fatalf("want one BenchmarkX row at -50.00%%:\n%s", out)
	}
}

func TestDeltaEdgeCases(t *testing.T) {
	if d := delta(0, 0); d != "0.00%" {
		t.Fatalf("delta(0,0) = %q", d)
	}
	if d := delta(0, 5); d != "~" {
		t.Fatalf("delta(0,5) = %q", d)
	}
	if d := delta(100, 150); d != "+50.00%" {
		t.Fatalf("delta(100,150) = %q", d)
	}
}
