package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the trace parser with arbitrary bytes: it must never
// panic, and anything it accepts must be a valid trace that survives a
// write/read round trip.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := sampleTrace().Write(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("sieve-trace 2\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 0\n")
	f.Add("sieve-trace 1\nkernel k\ninvocation 0\ngrid 1 1 1\nblock 32 1 1\nwarps 1\ninstrs 1\n0 1000 LDG ffffffff beef\n")
	f.Add("garbage\nmore garbage")
	f.Add("sieve-trace 0\nkernel 0\ninvocation 0\ngrid 0 0 0\nblock 0 0 0\nwarps 0\ninstrs  100000000")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace cannot be rewritten: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("rewritten trace cannot be reread: %v", err)
		}
	})
}
