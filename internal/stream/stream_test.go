package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"
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

// TestIngestDeterministicAcrossParallelism checks that reservoir membership,
// counts, CTA classes and first rows are identical at any worker count and
// batch size — the property the streaming stratifier's exactness rests on.
func TestIngestDeterministicAcrossParallelism(t *testing.T) {
	rows := genRows(2000, 5)
	base, err := IngestContext(context.Background(), sliceSource(rows), Options{ReservoirSize: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		for _, bs := range []int{1, 7, 256} {
			d, err := IngestContext(context.Background(), sliceSource(rows), Options{ReservoirSize: 64, Parallelism: p, BatchSize: bs})
			if err != nil {
				t.Fatalf("p=%d bs=%d: %v", p, bs, err)
			}
			if d.Rows != base.Rows || len(d.Kernels) != len(base.Kernels) {
				t.Fatalf("p=%d bs=%d: shape diverges", p, bs)
			}
			for i, kd := range d.Kernels {
				bk := base.Kernels[i]
				if kd.Name != bk.Name || kd.N() != bk.N() || kd.Complete() != bk.Complete() {
					t.Fatalf("p=%d bs=%d kernel %s: summary diverges", p, bs, kd.Name)
				}
				if !reflect.DeepEqual(indicesOf(kd.Rows()), indicesOf(bk.Rows())) {
					t.Fatalf("p=%d bs=%d kernel %s: reservoir membership diverges", p, bs, kd.Name)
				}
				if kd.First().Index != bk.First().Index {
					t.Fatalf("p=%d bs=%d kernel %s: first row diverges", p, bs, kd.Name)
				}
				if kd.DominantCTA() != bk.DominantCTA() || kd.MaxCTA() != bk.MaxCTA() {
					t.Fatalf("p=%d bs=%d kernel %s: CTA classes diverge", p, bs, kd.Name)
				}
				ka, ba := kd.Stats(), bk.Stats()
				if ka.Min() != ba.Min() || ka.Max() != ba.Max() {
					t.Fatalf("p=%d bs=%d kernel %s: min/max diverge", p, bs, kd.Name)
				}
				if math.Abs(ka.Sum()-ba.Sum()) > 1e-6*math.Abs(ba.Sum()) {
					t.Fatalf("p=%d bs=%d kernel %s: sums diverge beyond tolerance", p, bs, kd.Name)
				}
			}
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
		for _, p := range []int{1, 4} {
			if _, err := IngestContext(context.Background(), sliceSource(c.rows), Options{Parallelism: p, BatchSize: 1}); err == nil {
				t.Fatalf("%s (parallelism %d): want error", c.name, p)
			}
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
	if _, err := IngestContext(context.Background(), src, Options{Parallelism: 4, BatchSize: 2}); err != boom {
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
		{Parallelism: -2},
		{BatchSize: -5},
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
