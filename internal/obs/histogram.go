package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are nanosecond upper bounds from 1µs to 10s in
// a 1-2.5-5 ladder — the range a connectivity query or edge batch can
// plausibly take on any hardware this runs on.
var DefaultLatencyBuckets = []float64{
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
	1e9, 2.5e9, 1e10,
}

// Histogram is a fixed-bucket histogram with lock-free observation:
// each Observe is one atomic add on the bucket, one on the count, and
// a CAS-accumulated float sum. Bucket semantics match Prometheus
// (bounds are inclusive upper edges; an implicit +Inf bucket catches
// the tail).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over strictly increasing upper
// bounds. Registry.Histogram is the usual constructor; this one exists
// for recorders that feed a histogram owned elsewhere.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Safe for any number of concurrent
// callers.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d.Nanoseconds())) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); Counts[len(Bounds)] is the
// +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the current state. Individual fields are each
// monotone, but a snapshot taken during concurrent observation may be
// internally torn by in-flight Observes (bucket sums can trail Count by
// the number of observations between the loads); quiescent snapshots
// are exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Quantile estimates the q-th quantile (0..1) from bucket counts with
// linear interpolation inside the containing bucket, the same estimate
// Prometheus's histogram_quantile produces. Returns 0 with no
// observations; values in the +Inf bucket clamp to the highest finite
// bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) { // +Inf bucket
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
