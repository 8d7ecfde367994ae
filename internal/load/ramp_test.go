package load

import (
	"math"
	"testing"
	"time"
)

func TestParseRamp(t *testing.T) {
	r, err := ParseRamp("0:100,30s:1000,2m:5000")
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 3 || r[0].Target != 100 || r[1].At != 30*time.Second || r[2].Target != 5000 {
		t.Fatalf("ramp = %+v", r)
	}

	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 100},
		{15 * time.Second, 550},  // halfway 100→1000
		{30 * time.Second, 1000}, //
		{75 * time.Second, 3000}, // halfway 1000→5000
		{2 * time.Minute, 5000},  //
		{10 * time.Minute, 5000}, // holds past the last step
		{-time.Second, 100},      // clamps before the first
	}
	for _, c := range cases {
		if got := r.TargetAt(c.at); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TargetAt(%s) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestParseRampBareNumberAndSeconds(t *testing.T) {
	r, err := ParseRamp("400")
	if err != nil {
		t.Fatal(err)
	}
	if r.TargetAt(0) != 400 || r.TargetAt(time.Hour) != 400 {
		t.Fatalf("constant ramp = %+v", r)
	}
	r, err = ParseRamp("0:10,45:20") // bare-number offset means seconds
	if err != nil {
		t.Fatal(err)
	}
	if r[1].At != 45*time.Second {
		t.Fatalf("offset = %s, want 45s", r[1].At)
	}
}

func TestParseRampRejects(t *testing.T) {
	for _, s := range []string{"", "abc", "0:-5", "0:10,0:20", "x:10", "0:nan"} {
		if _, err := ParseRamp(s); err == nil {
			t.Errorf("ParseRamp(%q) accepted", s)
		}
	}
}

func TestRampRoundTrip(t *testing.T) {
	r, err := ParseRamp("0:100,30s:1000")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ParseRamp(r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if r2.TargetAt(12*time.Second) != r.TargetAt(12*time.Second) {
		t.Fatal("round-tripped ramp differs")
	}
}
