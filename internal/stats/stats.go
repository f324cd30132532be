// Package stats provides the measurement machinery of the evaluation
// (Section VI): repeated timings with median and quartiles (the paper
// reports medians of 16 runs with 25th/75th-percentile error bars),
// geometric means for speedup aggregation, and plain-text table
// rendering for the harness output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// GeoMean returns the geometric mean of positive values (the paper's
// cross-dataset speedup aggregate). Non-positive entries are skipped.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Timing summarizes repeated measurements of one configuration.
type Timing struct {
	Runs   int
	Median time.Duration
	P25    time.Duration
	P75    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// MeasureFunc times fn `runs` times and summarizes, mirroring the
// paper's protocol (median of N, quartile error bars). fn runs once
// before timing as a warm-up.
func MeasureFunc(runs int, fn func()) Timing {
	if runs < 1 {
		runs = 1
	}
	fn() // warm-up: page in the graph, spin up goroutine pools
	samples := make([]float64, runs)
	minD, maxD := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < runs; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		samples[i] = float64(d)
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	return Timing{
		Runs:   runs,
		Median: time.Duration(Median(samples)),
		P25:    time.Duration(Percentile(samples, 25)),
		P75:    time.Duration(Percentile(samples, 75)),
		Min:    minD,
		Max:    maxD,
	}
}

// String renders a Timing like "12.3ms [11.9,13.0]".
func (t Timing) String() string {
	return fmt.Sprintf("%v [%v,%v]", t.Median.Round(time.Microsecond),
		t.P25.Round(time.Microsecond), t.P75.Round(time.Microsecond))
}
