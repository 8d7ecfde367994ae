package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpusampling/sieve/api"
)

// inFlight caps the open loop's concurrent requests at the benchmark
// machine's two cores: more would measure oversubscription of the replicas'
// CPUs rather than the service.
const inFlight = 2

// overloadDrain is how far past the window's end the last response may
// arrive before the run counts as overloaded: a longer drain means the
// backlog grew faster than the replicas cleared it.
const overloadDrain = time.Second

// poissonSchedule returns n send offsets of a Poisson arrival process
// conditioned on exactly n arrivals in [0, window). Cumulative sums of n+1
// exponential gaps, scaled to the window, are distributed as the order
// statistics of n uniform draws, so every seed gets the same sample count
// and therefore the same percentile support.
func poissonSchedule(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	at := make([]time.Duration, n)
	var acc float64
	for i := range at {
		acc += gaps[i]
		at[i] = time.Duration(acc / total * float64(window))
	}
	return at
}

// outcome is one scheduled request's timing and result.
type outcome struct {
	queue   time.Duration // scheduled send → actual send
	call    time.Duration // actual send → response read
	latency time.Duration // scheduled send → verified response
	err     error
}

// sendFunc issues scheduled request i, verifies the response, and reports
// when the response had been read (before verification).
type sendFunc func(ctx context.Context, i int) (read time.Time, err error)

// drive runs an open loop: request i is due at start+at[i], and inFlight
// workers take requests strictly in schedule order, so a request that finds
// both workers busy waits in a FIFO queue, as an independent user's request
// would. Every request is timed from when it was due. drive returns the
// outcomes and how long after the window's end the last response arrived.
func drive(ctx context.Context, at []time.Duration, window time.Duration, send sendFunc) ([]outcome, time.Duration, error) {
	out := make([]outcome, len(at))
	// A short lead keeps worker start-up out of the first request's queue
	// time.
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(at) {
					return
				}
				due := start.Add(at[i])
				if d := time.Until(due); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				sent := time.Now()
				read, err := send(ctx, i)
				done := time.Now()
				out[i] = outcome{queue: sent.Sub(due), call: read.Sub(sent), latency: done.Sub(due), err: err}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return out, time.Since(start.Add(window)), nil
}

// verifyError marks a 2xx response that failed a correctness check, so it
// is counted apart from transport errors and non-2xx statuses.
type verifyError struct{ err error }

func (v verifyError) Error() string { return "verify: " + v.err.Error() }
func (v verifyError) Unwrap() error { return v.err }

// windowStats summarizes one measured window's outcomes.
type windowStats struct {
	scheduled  int
	transport  int // no usable response
	status     int // a non-2xx response
	verify     int // a 2xx response that failed a correctness check
	latencies  []float64
	queues     []float64
	callMeanMS float64
	drain      time.Duration
	firstErrs  []string
}

func (s *windowStats) failed() int { return s.transport + s.status + s.verify }

// summarize folds a window's outcomes into counts and sorted millisecond
// samples. Failed requests contribute no latency sample: any failure fails
// the run, so percentiles are only ever reported for runs without one.
func summarize(out []outcome, drain time.Duration) *windowStats {
	s := &windowStats{scheduled: len(out), drain: drain}
	var calls []float64
	for _, o := range out {
		if o.err != nil {
			var apiErr *api.Error
			var vErr verifyError
			switch {
			case errors.As(o.err, &vErr):
				s.verify++
			case errors.As(o.err, &apiErr):
				s.status++
			default:
				s.transport++
			}
			if len(s.firstErrs) < 5 {
				s.firstErrs = append(s.firstErrs, o.err.Error())
			}
			continue
		}
		s.latencies = append(s.latencies, ms(o.latency))
		s.queues = append(s.queues, ms(o.queue))
		calls = append(calls, ms(o.call))
	}
	sort.Float64s(s.latencies)
	sort.Float64s(s.queues)
	s.callMeanMS = mean(calls)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
