package sampler

import (
	"slices"
	"testing"
)

// TestNamesAreTheFourMethods pins the method table: every binary that links
// this package sees exactly these four names, whatever else it links.
func TestNamesAreTheFourMethods(t *testing.T) {
	want := []string{"pks", "rss", "sieve", "twophase"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}
