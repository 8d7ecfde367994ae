package profiler

import (
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/core"
)

var (
	benchRows    []core.InvocationProfile
	benchRecords int
)

// BenchmarkParseRows parses the lmc@0.01 fixture (2485 rows, 58 kernels)
// into stratifier rows, as sieved does for every CSV miss.
func BenchmarkParseRows(b *testing.B) {
	fixture := loadLMCFixture(b)
	b.SetBytes(int64(len(fixture)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ParseRows(fixture)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
}

// BenchmarkCSVScanner streams the lmc@0.01 fixture record by record, as
// sieve.CSVSource does, without keeping the records.
func BenchmarkCSVScanner(b *testing.B) {
	fixture := loadLMCFixture(b)
	b.SetBytes(int64(len(fixture)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := NewCSVScanner(strings.NewReader(fixture))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for sc.Next() {
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		benchRecords = n
	}
}
