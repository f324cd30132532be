// Package obs_test exercises the registry from outside the package so
// it can drive updates through internal/concurrent's worker pool — the
// exact producer the sharded counters are designed for — without an
// import cycle.
package obs_test

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/obs"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := obs.NewRegistry()
	c1 := r.Counter("x_total", "help", obs.L("k", "a"))
	c2 := r.Counter("x_total", "ignored on re-register", obs.L("k", "a"))
	if c1 != c2 {
		t.Error("same name+labels must return the same counter")
	}
	if c3 := r.Counter("x_total", "", obs.L("k", "b")); c3 == c1 {
		t.Error("different labels must return a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge should panic on type conflict")
		}
	}()
	r.Gauge("x_total", "")
}

func TestCounterShards(t *testing.T) {
	var c obs.Counter
	c.Inc()
	c.Add(2)
	for w := 0; w < 40; w++ { // ids beyond the shard count must wrap, not panic
		c.AddShard(w, 1)
	}
	if got := c.Value(); got != 43 {
		t.Errorf("Value = %d, want 43", got)
	}
}

func TestGauge(t *testing.T) {
	var g obs.Gauge
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := obs.NewHistogram([]float64{10, 20, 40})
	for _, v := range []float64{5, 15, 15, 25, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if want := []int64{1, 2, 1, 1}; !equalInt64(s.Counts, want) {
		t.Errorf("Counts = %v, want %v", s.Counts, want)
	}
	if s.Sum != 160 {
		t.Errorf("Sum = %v, want 160", s.Sum)
	}
	if q := s.Quantile(0.5); q < 10 || q > 20 {
		t.Errorf("p50 = %v, want inside (10, 20]", q)
	}
	if q := s.Quantile(1); q != 40 {
		t.Errorf("p100 = %v, want clamp to highest finite bound 40", q)
	}
	if q := (obs.HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWritePrometheusFormat(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("t_requests_total", "Requests.", obs.L("handler", "a")).Add(3)
	r.Counter("t_requests_total", "", obs.L("handler", "b")).Add(4)
	r.Gauge("t_ratio", "A ratio.").Set(0.25)
	r.Histogram("t_lat_ns", "Latency.", []float64{100, 1000}).Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP t_requests_total Requests.",
		"# TYPE t_requests_total counter",
		`t_requests_total{handler="a"} 3`,
		`t_requests_total{handler="b"} 4`,
		"# TYPE t_ratio gauge",
		"t_ratio 0.25",
		"# TYPE t_lat_ns histogram",
		`t_lat_ns_bucket{le="100"} 1`,
		`t_lat_ns_bucket{le="1000"} 1`,
		`t_lat_ns_bucket{le="+Inf"} 1`,
		"t_lat_ns_sum 50",
		"t_lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestScrapeUnderLoad hammers a counter and a histogram from pool
// workers while a scraper repeatedly renders the exposition, asserting
// (under -race as part of the tier-1 race run) that concurrently
// scraped counter values are monotone and never torn.
func TestScrapeUnderLoad(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("load_ops_total", "")
	h := r.Histogram("load_lat_ns", "", obs.DefaultLatencyBuckets)
	g := r.Gauge("load_ratio", "")

	const rounds, perRound = 64, 4096
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := int64(-1)
		for {
			select {
			case <-done:
				return
			default:
			}
			v := scrapeCounter(t, r, "load_ops_total")
			if v < prev {
				t.Errorf("scraped counter went backwards: %d after %d", v, prev)
				return
			}
			prev = v
		}
	}()

	for i := 0; i < rounds; i++ {
		concurrent.ForRange(perRound, 0, 64, func(lo, hi, w int) {
			for k := lo; k < hi; k++ {
				c.AddShard(w, 1)
				h.Observe(float64(k%1000) * 1e3)
			}
			g.Set(float64(w))
		})
	}
	close(done)
	wg.Wait()

	const total = rounds * perRound
	if got := c.Value(); got != total {
		t.Errorf("final counter = %d, want %d", got, total)
	}
	s := h.Snapshot()
	if s.Count != total {
		t.Errorf("histogram count = %d, want %d", s.Count, total)
	}
	var bucketSum int64
	for _, b := range s.Counts {
		bucketSum += b
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d (quiescent snapshot must be exact)", bucketSum, total)
	}
	if math.IsNaN(s.Sum) || s.Sum <= 0 {
		t.Errorf("histogram sum = %v, want positive", s.Sum)
	}
	if got := scrapeCounter(t, r, "load_ops_total"); got != total {
		t.Errorf("final scrape = %d, want %d", got, total)
	}
}

// scrapeCounter renders the registry and parses one unlabeled counter's
// sample line.
func scrapeCounter(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("counter %s not found in exposition", name)
	return 0
}
