package sieve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/gpusampling/sieve"
)

// syntheticProfile builds kernels × rows Tier-3 invocations (bimodal
// instruction counts force KDE splitting) — large enough that stratification
// takes real time, so mid-run cancellation is observable.
func syntheticProfile(kernels, rows int) []sieve.InvocationProfile {
	rng := rand.New(rand.NewSource(42))
	profile := make([]sieve.InvocationProfile, 0, kernels*rows)
	idx := 0
	for k := 0; k < kernels; k++ {
		for i := 0; i < rows; i++ {
			count := 1e6 + 1e5*rng.Float64()
			if i%2 == 1 {
				count *= 40 // second mode, CoV ≥ θ
			}
			profile = append(profile, sieve.InvocationProfile{
				Kernel:           fmt.Sprintf("kernel_%03d", k),
				Index:            idx,
				InstructionCount: count,
				CTASize:          128 + 32*(i%4),
			})
			idx++
		}
	}
	return profile
}

// csvReader renders a profile as the WriteProfileCSV wire format.
func csvReader(t *testing.T, profile []sieve.InvocationProfile) *strings.Reader {
	t.Helper()
	var b strings.Builder
	b.WriteString("kernel,index,seq,cta_size,instruction_count\n")
	for i, r := range profile {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%g\n", r.Kernel, r.Index, i, r.CTASize, r.InstructionCount)
	}
	return strings.NewReader(b.String())
}

// waitGoroutines polls until the goroutine count drops back to within slack
// of the baseline, failing the test if cancelled workers leaked.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSampleContextCanceledPromptly(t *testing.T) {
	profile := syntheticProfile(96, 3000)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := sieve.SampleContext(ctx, profile, sieve.Options{})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// The run may legitimately win the race on a fast machine; anything
		// other than success must be context.Canceled.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if err != nil && time.Since(start) > 2*time.Second {
			t.Fatalf("cancellation not prompt: returned after %v", time.Since(start))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SampleContext did not return after cancellation")
	}
	waitGoroutines(t, baseline)
}

func TestSampleContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := sieve.SampleContext(ctx, syntheticProfile(2, 8), sieve.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSampleStreamContextCanceled(t *testing.T) {
	profile := syntheticProfile(8, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	_, err := sieve.SampleMethodContext(ctx, "", &sieve.MethodProfile{Rows: profile}, sieve.MethodOptions{Stream: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

func TestSampleCSVContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := sieve.CSVSource(csvReader(t, syntheticProfile(2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sieve.SampleMethodContext(ctx, "", &sieve.MethodProfile{Source: src}, sieve.MethodOptions{Stream: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPKSSelectContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	features := make([][]float64, 400)
	golden := make([]float64, len(features))
	for i := range features {
		row := make([]float64, 12)
		for j := range row {
			row[j] = rng.Float64()
		}
		features[i] = row
		golden[i] = 1 + rng.Float64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	_, err := sieve.PKSSelectContext(ctx, features, golden, sieve.PKSOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

func TestPredictContextCanceled(t *testing.T) {
	profile := syntheticProfile(4, 32)
	plan, err := sieve.Sample(profile, sieve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = plan.PredictContext(ctx, func(i int) (float64, error) { return 100, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestContextVariantsMatchPlain pins the wrapper contract: the Background
// context variants must produce byte-identical results to the original
// entry points.
func TestContextVariantsMatchPlain(t *testing.T) {
	profile := syntheticProfile(6, 120)
	plain, err := sieve.Sample(profile, sieve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := sieve.SampleContext(context.Background(), profile, sieve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Strata, withCtx.Strata) || plain.TotalInstructions != withCtx.TotalInstructions {
		t.Fatal("SampleContext(context.Background()) differs from Sample")
	}

	pred1, err := plain.Predict(func(i int) (float64, error) { return 1e5, nil })
	if err != nil {
		t.Fatal(err)
	}
	pred2, err := plain.PredictContext(context.Background(), func(i int) (float64, error) { return 1e5, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred1, pred2) {
		t.Fatal("PredictContext(context.Background()) differs from Predict")
	}
}

// TestSentinelErrors pins the errors.Is contract the serving layer maps onto
// HTTP status codes.
func TestSentinelErrors(t *testing.T) {
	if _, err := sieve.Sample(nil, sieve.Options{}); !errors.Is(err, sieve.ErrEmptyProfile) {
		t.Fatalf("empty profile err = %v, want ErrEmptyProfile", err)
	}
	if _, err := sieve.Sample(syntheticProfile(1, 4), sieve.Options{Theta: -0.1}); !errors.Is(err, sieve.ErrInvalidTheta) {
		t.Fatalf("negative theta err = %v, want ErrInvalidTheta", err)
	}
	if _, err := sieve.Sample(syntheticProfile(1, 4), sieve.Options{ThetaSet: true}); !errors.Is(err, sieve.ErrInvalidTheta) {
		t.Fatalf("explicit zero theta err = %v, want ErrInvalidTheta", err)
	}
	if _, err := sieve.SampleMethod("", &sieve.MethodProfile{}, sieve.MethodOptions{Stream: true}); !errors.Is(err, sieve.ErrEmptyProfile) {
		t.Fatalf("empty stream err = %v, want ErrEmptyProfile", err)
	}

	// A kernel overflowing its reservoir marks the plan Sampled; exact-
	// membership metrics must refuse with ErrSampledPlan.
	profile := syntheticProfile(1, 64)
	plan, err := sieve.SampleMethod("", &sieve.MethodProfile{Rows: profile}, sieve.MethodOptions{Stream: true, ReservoirSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sampled {
		t.Fatal("expected a sampled plan with an 8-row reservoir over 64 rows")
	}
	golden := make([]float64, len(profile))
	for i := range golden {
		golden[i] = 1
	}
	if _, err := plan.Speedup(golden); !errors.Is(err, sieve.ErrSampledPlan) {
		t.Fatalf("Speedup on sampled plan err = %v, want ErrSampledPlan", err)
	}
	if _, err := plan.WeightedCycleCoV(golden); !errors.Is(err, sieve.ErrSampledPlan) {
		t.Fatalf("WeightedCycleCoV on sampled plan err = %v, want ErrSampledPlan", err)
	}
}
