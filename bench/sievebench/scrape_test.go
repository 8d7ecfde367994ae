package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a sieved /metrics exposition captured after two
// identical CSV sample POSTs (one miss, one hit) and one plan GET that 404ed.
func TestParseCapturedExposition(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"sieved_requests_total":                       3,
		"sieved_cache_hits_total":                     1,
		"sieved_request_seconds_count":                3,
		`sieved_stage_seconds_count{stage="compute"}`: 1,
		`sieved_request_seconds_bucket{le="+Inf"}`:    3,
	} {
		if got, ok := e[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}

	layers := serverLayers(exposition{}, e)
	if got, want := layers["server.request_ms"], 1e3*e["sieved_request_seconds_sum"]/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("server.request_ms = %g, want %g", got, want)
	}
	var staged float64
	for _, st := range serverStages {
		staged += layers["server."+st+"_ms"]
	}
	if got := staged + layers["server.unattributed_ms"]; math.Abs(got-layers["server.request_ms"]) > 1e-12 {
		t.Errorf("stages + unattributed = %g, want server.request_ms %g", got, layers["server.request_ms"])
	}
	if layers["server.hit_rate"] != 0.5 || layers["server.computations_per_lookup"] != 0.5 {
		t.Errorf("hit_rate %g, computations_per_lookup %g; want 0.5, 0.5", layers["server.hit_rate"], layers["server.computations_per_lookup"])
	}
	if got := layers["server.failures_per_req"]; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("failures_per_req = %g, want 1/3", got)
	}

	// A window's layers are the difference of two scrapes.
	if d := serverLayers(e, e); d["server.request_ms"] != 0 || d["server.hit_rate"] != 0 {
		t.Errorf("identical scrapes gave request_ms %g, hit_rate %g; want 0", d["server.request_ms"], d["server.hit_rate"])
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, doc := range []string{"sieved_requests_total\n", "sieved_requests_total three\n"} {
		if _, err := parseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("parseExposition(%q) accepted a malformed sample", doc)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name may hold spaces and parentheses; fields count from the
	// last ')'. utime = 1234, stime = 56.
	line := "4242 (sieved (x) y) S 1 4242 4242 0 -1 4194560 1520 0 0 0 1234 56 0 0 20 0 9 0 123456 1300000000 4000 18446744073709551615\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1290 {
		t.Fatalf("utime+stime = %d, want 1290", got)
	}
	if _, err := parseStatCPU([]byte("4242 (sieved) S 1 2")); err == nil {
		t.Fatal("accepted a truncated stat line")
	}

	status := "Name:\tsieved\nVmPeak:\t 1300000 kB\nVmHWM:\t   16772 kB\nVmRSS:\t   16000 kB\n"
	kb, err := parseStatusHWM([]byte(status))
	if err != nil || kb != 16772 {
		t.Fatalf("VmHWM = %d, %v; want 16772", kb, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tsieved\n")); err == nil {
		t.Fatal("accepted a status without VmHWM")
	}
}

// TestParseOwnProcFiles reads this process's own /proc files, whose format
// the captured lines above stand for.
func TestParseOwnProcFiles(t *testing.T) {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := parseStatCPU(stat); err != nil {
		t.Fatal(err)
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	if kb, err := parseStatusHWM(status); err != nil || kb <= 0 {
		t.Fatalf("VmHWM = %d, %v", kb, err)
	}
}
