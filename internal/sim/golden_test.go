package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/trace"
	"github.com/gpusampling/sieve/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_results.txt from the current code")

// goldenResultsFile pins every simulation mode's results on a fixed set of
// traces.
const goldenResultsFile = "testdata/golden_results.txt"

// goldenSMCounts are the SM counts the fixture runs SimulateMultiSM at (0
// selects the architecture default, clamped to the traced warps).
var goldenSMCounts = []int{0, 1, 2, 4, 7}

// goldenTrace is one labeled fixture trace.
type goldenTrace struct {
	label string
	tr    *trace.Trace
}

// goldenTraces builds the fixture: hand-made ALU traces on one and several
// warps, and generated traces of four workloads' invocations, long enough
// for PKP to converge on some of them.
func goldenTraces(t *testing.T) []goldenTrace {
	t.Helper()
	out := []goldenTrace{
		{"alu-100", aluTrace(100)},
		{"alu-60000", aluTrace(60000)},
		{"malu-64x300", multiWarpALU(64, 300)},
		{"malu-5x4000", multiWarpALU(5, 4000)},
	}
	for _, name := range []string{"lmc", "gru", "bert", "gst"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.Generate(spec, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			idx := i * (len(w.Invocations) - 1) / 3
			maxInstrs := 20000
			if i%2 == 1 {
				maxInstrs = 40000
			}
			tr, err := trace.Generate(&w.Invocations[idx], maxInstrs, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenTrace{fmt.Sprintf("%s-%d", name, idx), tr})
		}
	}
	return out
}

// TestGoldenResults pins, field by field, the results of Simulate,
// SimulateProjected (at the default and a loose tolerance) and
// SimulateMultiSM at several SM counts on the fixture traces. One line per
// field keeps a diff of the fixture down to the fields a change moved.
// Regenerate with -update-golden only when a result changes on purpose.
func TestGoldenResults(t *testing.T) {
	s := mustSim(t)
	var buf bytes.Buffer
	line := func(label, mode, field, value string) {
		fmt.Fprintf(&buf, "%s %s %s %s\n", label, mode, field, value)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	result := func(label, mode string, r *Result) {
		line(label, mode, "Cycles", f(r.Cycles))
		line(label, mode, "SMCycles", strconv.FormatUint(r.SMCycles, 10))
		line(label, mode, "WarpInstructions", strconv.Itoa(r.WarpInstructions))
		line(label, mode, "IPC", f(r.IPC))
		line(label, mode, "L1HitRate", f(r.L1HitRate))
		line(label, mode, "L2HitRate", f(r.L2HitRate))
	}
	for _, g := range goldenTraces(t) {
		full, err := s.Simulate(g.tr)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		result(g.label, "simulate", full)
		for _, p := range []struct {
			mode      string
			tolerance float64
		}{{"pkp", pkpTolerance}, {"pkp-loose", 0.2}} {
			proj, err := s.simulateProjected(g.tr, p.tolerance)
			if err != nil {
				t.Fatalf("%s %s: %v", g.label, p.mode, err)
			}
			result(g.label, p.mode, &proj.Result)
			line(g.label, p.mode, "SimulatedInstructions", strconv.Itoa(proj.SimulatedInstructions))
			line(g.label, p.mode, "SimulatedFraction", f(proj.SimulatedFraction))
			line(g.label, p.mode, "Converged", strconv.FormatBool(proj.Converged))
		}
		for _, n := range goldenSMCounts {
			mode := fmt.Sprintf("multism-%d", n)
			m, err := s.SimulateMultiSM(g.tr, n)
			if err != nil {
				t.Fatalf("%s %s: %v", g.label, mode, err)
			}
			result(g.label, mode, &m.Result)
			line(g.label, mode, "SMs", strconv.Itoa(m.SMs))
			per := make([]string, len(m.PerSMCycles))
			for i, c := range m.PerSMCycles {
				per[i] = strconv.FormatUint(c, 10)
			}
			line(g.label, mode, "PerSMCycles", strings.Join(per, " "))
			line(g.label, mode, "Imbalance", f(m.Imbalance))
			ops := make([]string, 0, len(m.OpMix))
			for op, c := range m.OpMix {
				ops = append(ops, fmt.Sprintf("%s:%d", op, c))
			}
			sort.Strings(ops)
			line(g.label, mode, "OpMix", strings.Join(ops, " "))
		}
	}

	if *updateGolden {
		if err := os.WriteFile(goldenResultsFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("results differ from %s:\n%s", goldenResultsFile, firstDiff(want, buf.Bytes()))
	}
}

// firstDiff reports the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n want %s\n got  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
