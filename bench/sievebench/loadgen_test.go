package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const n, window = 2000, 20 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), n, window)
	b := poissonSchedule(rand.New(rand.NewSource(7)), n, window)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(rand.New(rand.NewSource(8)), n, window); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != n {
		t.Fatalf("got %d arrivals, want %d", len(a), n)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= window {
		t.Fatalf("arrivals not sorted within [0, %v): first %v, last %v", window, a[0], a[n-1])
	}
	// Poisson gaps are exponential: their coefficient of variation is 1,
	// where an evenly spaced schedule's would be 0.
	gaps := make([]float64, n-1)
	for i := range gaps {
		gaps[i] = float64(a[i+1] - a[i])
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	if cov := math.Sqrt(ss/float64(len(gaps))) / m; cov < 0.9 || cov > 1.1 {
		t.Fatalf("gap CoV = %.3f, want ≈ 1 for exponential gaps", cov)
	}
}

// TestDriveTimesFromScheduleAndCapsConcurrency checks the open loop: no more
// than inFlight requests at once, every request sent no earlier than it was
// due, and a request delayed behind busy workers charged its queueing time.
func TestDriveTimesFromScheduleAndCapsConcurrency(t *testing.T) {
	at := make([]time.Duration, 6) // all due at once: four must queue
	var busy, peak atomic.Int32
	out, _, err := drive(context.Background(), at, 0, func(ctx context.Context, i int) (time.Time, error) {
		n := busy.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		busy.Add(-1)
		return time.Now(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != inFlight {
		t.Fatalf("peak concurrency %d, want %d", p, inFlight)
	}
	for i, o := range out {
		if o.queue < 0 || o.latency < o.queue+o.call {
			t.Fatalf("request %d: queue %v, call %v, latency %v", i, o.queue, o.call, o.latency)
		}
	}
	if last := out[len(out)-1]; last.queue < 40*time.Millisecond {
		t.Fatalf("last request queued %v behind two rounds of 20ms calls", last.queue)
	}
}
