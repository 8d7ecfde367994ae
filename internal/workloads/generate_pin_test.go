package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGenerate = flag.Bool("update-generate", false, "rewrite testdata/generate_sha256.txt from the current code")

// generatePinFile holds one "<name> <scale> <sha256>" line per pinned output.
const generatePinFile = "testdata/generate_sha256.txt"

// generatePinScales are the two scales every catalog workload is pinned at:
// small enough to keep the test fast, large enough that the big workloads
// generate thousands to tens of thousands of invocations (the small ones sit
// at the minimum-invocation floor at both).
var generatePinScales = []float64{0.005, 0.02}

// TestGenerateOutputPinned hashes the JSON encoding of Generate's output for
// every catalog workload at two scales and compares it with the recorded
// hashes. Generation speed-ups (the interleave sort, preallocation) must
// leave every invocation, field for field, unchanged. Regenerate with
// -update-generate only when the synthetic workloads change on purpose.
func TestGenerateOutputPinned(t *testing.T) {
	var got strings.Builder
	for _, spec := range Catalog() {
		for _, scale := range generatePinScales {
			w, err := Generate(spec, scale)
			if err != nil {
				t.Fatalf("%s@%g: %v", spec.Name, scale, err)
			}
			b, err := json.Marshal(w)
			if err != nil {
				t.Fatalf("%s@%g: encode: %v", spec.Name, scale, err)
			}
			sum := sha256.Sum256(b)
			fmt.Fprintf(&got, "%s %s %s\n", spec.Name, strconv.FormatFloat(scale, 'g', -1, 64), hex.EncodeToString(sum[:]))
		}
	}
	if *updateGenerate {
		if err := os.WriteFile(generatePinFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(generatePinFile)
	if err != nil {
		t.Fatalf("%v (record with -update-generate)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("generated %q, which differs from pinned line %d", line, i+1)
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("generated %d lines, pinned %d", len(gotLines), len(wantLines))
	}
}
