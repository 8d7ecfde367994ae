package stats

import "math"

// Accumulator computes running count, mean and variance using Welford's
// online algorithm, plus min/max and sum. It lets profile consumers compute
// per-stratum dispersion in a single pass over millions of invocations
// without materializing intermediate slices.
//
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	sum  float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.sum += x
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll folds every value of xs into the accumulator.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of accumulated samples.
func (a *Accumulator) N() int { return a.n }

// Sum returns the sum of the accumulated samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the running mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.mean
}

// Variance returns the population variance, or 0 with fewer than two samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// CoV returns the coefficient of variation σ/μ, or 0 when the mean is zero.
func (a *Accumulator) CoV() float64 {
	m := a.Mean()
	if m == 0 {
		return 0
	}
	return a.StdDev() / math.Abs(m)
}

// Min returns the smallest accumulated sample, or 0 with no samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest accumulated sample, or 0 with no samples.
func (a *Accumulator) Max() float64 { return a.max }
