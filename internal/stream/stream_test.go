package stream

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"github.com/gpusampling/sieve/internal/stats"
)

// sliceSource yields rows from a slice, then io.EOF.
func sliceSource(rows []Row) Source {
	i := 0
	return func() (Row, error) {
		if i >= len(rows) {
			return Row{}, io.EOF
		}
		r := rows[i]
		i++
		return r, nil
	}
}

// genRows builds a deterministic synthetic stream: kernels round-robin, a
// couple of CTA sizes, instruction counts with per-kernel spread.
func genRows(n, kernels int) []Row {
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		k := i % kernels
		base := float64(1000 * (k + 1))
		// Deterministic wobble without math/rand.
		wobble := float64(priority(7, i)%1000) / 1000.0
		rows[i] = Row{
			Kernel:           fmt.Sprintf("k%02d", k),
			Index:            i,
			InstructionCount: base * (1 + 0.5*wobble),
			CTASize:          128 << (uint(i/kernels) % 2),
		}
	}
	return rows
}

func indicesOf(rows []Row) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = r.Index
	}
	return out
}

func TestIngestCompleteKernelsRetainEverything(t *testing.T) {
	rows := genRows(300, 3)
	d, err := IngestContext(context.Background(), sliceSource(rows), Options{ReservoirSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 300 {
		t.Fatalf("Rows = %d, want 300", d.Rows)
	}
	if len(d.Kernels) != 3 {
		t.Fatalf("kernels = %d, want 3", len(d.Kernels))
	}
	for _, kd := range d.Kernels {
		if !kd.Complete() {
			t.Fatalf("kernel %s: reservoir overflowed with exactly-fitting cap", kd.Name)
		}
		if kd.N() != 100 || len(kd.Rows()) != 100 {
			t.Fatalf("kernel %s: N=%d rows=%d, want 100", kd.Name, kd.N(), len(kd.Rows()))
		}
		got := kd.Rows()
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Index < got[b].Index }) {
			t.Fatalf("kernel %s: rows not sorted by index", kd.Name)
		}
	}
	// Kernels sorted by name.
	for i := 1; i < len(d.Kernels); i++ {
		if d.Kernels[i-1].Name >= d.Kernels[i].Name {
			t.Fatal("kernels not sorted by name")
		}
	}
}

func TestReservoirBottomKMatchesBruteForce(t *testing.T) {
	const n, cap = 500, 16
	rows := genRows(n, 1)
	d, err := IngestContext(context.Background(), sliceSource(rows), Options{ReservoirSize: cap, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	kd := d.Kernels[0]
	if kd.Complete() {
		t.Fatal("expected overflow")
	}
	if kd.N() != n {
		t.Fatalf("N = %d, want %d", kd.N(), n)
	}
	// Brute-force bottom-k by priority.
	type pr struct {
		idx int
		pri uint64
	}
	all := make([]pr, n)
	for i := range rows {
		all[i] = pr{idx: rows[i].Index, pri: priority(42, rows[i].Index)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].pri < all[b].pri })
	want := make([]int, cap)
	for i := 0; i < cap; i++ {
		want[i] = all[i].idx
	}
	sort.Ints(want)
	if got := indicesOf(kd.Rows()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reservoir membership = %v, want bottom-%d by priority %v", got, cap, want)
	}
}

// TestIngestDigestMatchesArrivalOrderFold checks every kernel's digest
// against a brute-force fold of that kernel's rows in arrival order: the
// accumulator bit for bit (floating-point sums included), the first row, the
// CTA classes and the reservoir membership. A digest that is this fold is a
// pure function of the source, which is what lets a stream plan have the same
// bytes on every path and at any worker count.
func TestIngestDigestMatchesArrivalOrderFold(t *testing.T) {
	const cap = 64
	rows := genRows(2000, 5)
	d, err := IngestContext(context.Background(), sliceSource(rows), Options{ReservoirSize: cap, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != len(rows) || len(d.Kernels) != 5 {
		t.Fatalf("digest has %d rows, %d kernels; want %d, 5", d.Rows, len(d.Kernels), len(rows))
	}
	for _, kd := range d.Kernels {
		var acc stats.Accumulator
		var first Row
		ctas := map[int]CTAClass{}
		var pris []sample
		for _, r := range rows {
			if r.Kernel != kd.Name {
				continue
			}
			r.Pos = r.Index // genRows numbers rows by arrival position
			if acc.N() == 0 {
				first = r
			}
			acc.Add(r.InstructionCount)
			c, ok := ctas[r.CTASize]
			if !ok {
				c = CTAClass{Size: r.CTASize, First: r}
			}
			c.Count++
			ctas[r.CTASize] = c
			pris = append(pris, sample{row: r, pri: priority(3, r.Index)})
		}
		if kd.Stats() != acc {
			t.Fatalf("kernel %s: accumulator %+v, want the arrival-order fold %+v", kd.Name, kd.Stats(), acc)
		}
		if kd.First() != first {
			t.Fatalf("kernel %s: first row %+v, want %+v", kd.Name, kd.First(), first)
		}
		if dom := kd.DominantCTA(); dom != ctas[dom.Size] {
			t.Fatalf("kernel %s: dominant CTA %+v, want %+v", kd.Name, dom, ctas[dom.Size])
		}
		if max := kd.MaxCTA(); max != ctas[max.Size] {
			t.Fatalf("kernel %s: max CTA %+v, want %+v", kd.Name, max, ctas[max.Size])
		}
		sort.Slice(pris, func(a, b int) bool { return worse(pris[b], pris[a]) })
		want := make([]int, cap)
		for i := range want {
			want[i] = pris[i].row.Index
		}
		sort.Ints(want)
		if kd.Complete() || !reflect.DeepEqual(indicesOf(kd.Rows()), want) {
			t.Fatalf("kernel %s: reservoir membership diverges from bottom-%d by priority", kd.Name, cap)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	cases := []struct {
		name string
		rows []Row
	}{
		{"no kernel", []Row{{Kernel: "", Index: 0, InstructionCount: 1, CTASize: 32}}},
		{"bad instcount", []Row{{Kernel: "k", Index: 0, InstructionCount: 0, CTASize: 32}}},
		{"bad cta", []Row{{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 0}}},
		{"duplicate index", []Row{
			{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 32},
			{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 32},
		}},
		{"out of order", []Row{
			{Kernel: "k", Index: 5, InstructionCount: 1, CTASize: 32},
			{Kernel: "k", Index: 4, InstructionCount: 1, CTASize: 32},
		}},
	}
	for _, c := range cases {
		if _, err := IngestContext(context.Background(), sliceSource(c.rows), Options{}); err == nil {
			t.Fatalf("%s: want error", c.name)
		}
	}
}

func TestIngestSourceErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	n := 0
	src := func() (Row, error) {
		if n == 10 {
			return Row{}, boom
		}
		r := Row{Kernel: "k", Index: n, InstructionCount: 1, CTASize: 32}
		n++
		return r, nil
	}
	if _, err := IngestContext(context.Background(), src, Options{}); err != boom {
		t.Fatalf("err = %v, want source error", err)
	}
}

func TestIngestEmptySource(t *testing.T) {
	d, err := IngestContext(context.Background(), sliceSource(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 0 || len(d.Kernels) != 0 {
		t.Fatalf("empty source yielded %d rows, %d kernels", d.Rows, len(d.Kernels))
	}
}

func TestIngestRejectsBadOptions(t *testing.T) {
	for _, o := range []Options{
		{ReservoirSize: -1},
	} {
		if _, err := IngestContext(context.Background(), sliceSource(nil), o); err == nil {
			t.Fatalf("options %+v: want error", o)
		}
	}
}

func TestDominantCTATieBreaksTowardEarliest(t *testing.T) {
	rows := []Row{
		{Kernel: "k", Index: 0, InstructionCount: 1, CTASize: 256},
		{Kernel: "k", Index: 1, InstructionCount: 1, CTASize: 128},
		{Kernel: "k", Index: 2, InstructionCount: 1, CTASize: 256},
		{Kernel: "k", Index: 3, InstructionCount: 1, CTASize: 128},
	}
	d, err := IngestContext(context.Background(), sliceSource(rows), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dom := d.Kernels[0].DominantCTA()
	if dom.Size != 256 || dom.First.Index != 0 || dom.Count != 2 {
		t.Fatalf("dominant = %+v, want size 256 first 0 count 2", dom)
	}
	if max := d.Kernels[0].MaxCTA(); max.Size != 256 {
		t.Fatalf("max CTA = %+v, want 256", max)
	}
}
