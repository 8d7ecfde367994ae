package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_figures_scale0.02.txt from the current code")

// goldenFiguresFile pins the method-comparison figures at a small scale.
const goldenFiguresFile = "testdata/golden_figures_scale0.02.txt"

// TestGoldenFigures pins, byte for byte, the rendered tables that compare
// sampling methods: Figs. 3, 4, 5, 6 and 8 and the baselines table, at scale
// 0.02 with the default θ and seed. These are the paper's Sieve-vs-PKS
// numbers (plus twophase and rss) on all 40 workloads, so a change to how
// any method is planned or evaluated that moves one printed digit fails
// here, not only in the scale-0.04 record. Regenerate with -update-golden
// only when a figure changes on purpose.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("plans every method on all 40 workloads")
	}
	r := NewRunner(Config{Scale: 0.02})
	var buf bytes.Buffer
	emit := func(tab *Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Print(&buf); err != nil {
			t.Fatal(err)
		}
	}
	fig3, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	baselines, err := r.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	emit(RenderAccuracy("Fig. 3", fig3, "scale 0.02"), nil)
	emit(RenderFig4(fig3), nil)
	emit(RenderFig5(fig5), nil)
	emit(RenderFig6(fig3))
	emit(RenderAccuracy("Fig. 8", fig8, "scale 0.02"), nil)
	emit(RenderBaselines(baselines), nil)

	if *updateGolden {
		if err := os.WriteFile(goldenFiguresFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFiguresFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered figures differ from %s:\n%s", goldenFiguresFile, firstDiff(want, buf.Bytes()))
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
