package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at a 1 s window, then the traced
// run, against replicas built from this checkout, and checks every response
// verified and every reported metric was measured.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts replicas and drives load for about half a minute")
	}
	cfg := runConfig{seed: 1, window: time.Second, warmup: 500 * time.Millisecond}
	res, err := runAll(context.Background(), "../..", filepath.Join(t.TempDir(), "smoke"), "", workloads, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if !w.correct() {
			t.Errorf("%s: failed %d, overloaded %v: %v", w.Name, w.Failed, w.Overloaded, w.Errors)
		}
		for _, set := range [][]metricDef{endToEnd, perLayer, diagnostics} {
			for _, d := range set {
				m, ok := w.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || m.Unit != d.unit {
					t.Errorf("%s: %s = %+v (present %v)", w.Name, d.name, m, ok)
				}
			}
		}
	}
	if _, err := summaryLine(res.Workloads, true); err != nil {
		t.Fatal(err)
	}
}
