package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeAppliesPairRuleAndBounds(t *testing.T) {
	parent := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		bound  float64
		want   verdict
	}{
		{"clear gain", parent, scale(0.8), 0.1, improved},
		{"same code", parent, parent, 0.1, unchanged},
		{"within bound", parent, scale(1.05), 0.1, unchanged},
		{"beyond bound", parent, scale(1.2), 0.1, regressed},
		{"any increase when unbounded", []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, 0, regressed},
		{"zero stays zero", []float64{0, 0, 0}, []float64{0, 0, 0}, 0, unchanged},
		{"spread wider than bound", []float64{5, 10, 15, 10, 5, 15}, []float64{6, 11, 14, 9, 6, 14}, 0.1, unresolved},
		{"wide spread, every change run better", []float64{5, 10, 15, 10, 5, 15}, []float64{4, 4, 4.5, 4, 4, 4.2}, 0.1, unchanged},
	} {
		if got := judge(tc.parent, tc.change, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	if v := workloadVerdict([]verdict{improved, unresolved, unchanged}); v != unresolved {
		t.Errorf("workloadVerdict = %s, want unresolved", v)
	}
}

func TestCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		r := &result{Workloads: []*workloadResult{{Name: "csv-hit", Metrics: map[string]metric{
			"p50_ms": {p50, "ms"}, "err_rate": {0, "ratio"},
		}}}}
		if err := writeResult(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var parent, change []string
	for i, v := range []float64{2.0, 2.1, 1.9} {
		parent = append(parent, write("p"+string(rune('0'+i))+".json", v))
		change = append(change, write("c"+string(rune('0'+i))+".json", 2*v))
	}
	var out bytes.Buffer
	status := compareMain(&out, append(append(parent, "--"), change...))
	if status != 1 || !strings.Contains(out.String(), "csv-hit") || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("status %d, output:\n%s", status, out.String())
	}
	if status := compareMain(&out, parent); status != 2 {
		t.Fatalf("compare without -- returned %d, want 2", status)
	}
}
