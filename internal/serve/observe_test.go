package serve

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

// scrapeSample fetches /metrics and parses one sample line by its
// exact rendered name (including any label set).
func scrapeSample(t *testing.T, url, sample string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, sample+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestMetricsEndpoint drives traffic through a bootstrapped server and
// asserts the acceptance-criteria families appear on /metrics: run
// phases (link rounds, compress passes, skip ratio), pool utilization,
// request counters, and the latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 17)
	srv, err := Bootstrap(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One read and one write so both latency histograms have samples.
	var conn struct {
		Connected bool `json:"connected"`
	}
	if code := getJSON(t, ts.URL+"/connected?u=0&v=1", &conn); code != http.StatusOK {
		t.Fatalf("connected status %d", code)
	}
	postEdges(t, &http.Client{}, ts.URL, []graph.Edge{{U: 1, V: 2}})

	for _, sample := range []string{
		"afforest_runs_total",
		"afforest_link_rounds_total",
		"afforest_compress_passes_total",
		"afforest_skip_ratio",
		"afforest_edges_processed_total",
		`afforest_phase_ns_total{phase="neighbor_round"}`,
		`afforest_phase_ns_total{phase="final_skip_pass"}`,
		"afforest_pool_busy_ns_total",
		"afforest_pool_jobs_total",
		`afforest_http_requests_total{handler="connected"}`,
		`afforest_http_requests_total{handler="edges"}`,
		"afforest_read_latency_ns_count",
		"afforest_write_latency_ns_count",
		"afforest_edge_apply_ns_count",
	} {
		v, ok := scrapeSample(t, ts.URL, sample)
		if !ok {
			t.Errorf("/metrics missing sample %s", sample)
			continue
		}
		if v <= 0 && !strings.Contains(sample, "skip_ratio") {
			t.Errorf("%s = %v, want > 0 after bootstrap + traffic", sample, v)
		}
	}
	if v, ok := scrapeSample(t, ts.URL, "afforest_runs_total"); !ok || v != 1 {
		t.Errorf("afforest_runs_total = %v, want exactly 1 bootstrap run", v)
	}
	if v, ok := scrapeSample(t, ts.URL, "afforest_skip_ratio"); !ok || v <= 0 || v > 1 {
		t.Errorf("afforest_skip_ratio = %v, want in (0, 1]", v)
	}
}

// TestStatsLastRun: a bootstrapped server retains its run's phase
// breakdown and reports it on /stats.
func TestStatsLastRun(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 23)
	srv, err := Bootstrap(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var out struct {
		LastRun struct {
			TotalNS int64 `json:"total_ns"`
			Edges   int64 `json:"edges"`
			Phases  []struct {
				Name  string `json:"name"`
				DurNS int64  `json:"dur_ns"`
			} `json:"phases"`
		} `json:"last_run"`
	}
	if code := getJSON(t, ts.URL+"/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.LastRun.TotalNS <= 0 || out.LastRun.Edges <= 0 {
		t.Fatalf("last_run = %+v, want positive total_ns and edges", out.LastRun)
	}
	names := make(map[string]bool)
	var leafNS int64
	for _, p := range out.LastRun.Phases {
		names[p.Name] = true
		leafNS += p.DurNS
	}
	for _, want := range []string{"neighbor_round", "compress", "sample_frequent", "final_skip_pass"} {
		if !names[want] {
			t.Errorf("last_run phases missing %q: %v", want, names)
		}
	}
	if leafNS <= 0 || leafNS > out.LastRun.TotalNS {
		t.Errorf("leaf sum %d vs total %d: leaves must nest inside the run", leafNS, out.LastRun.TotalNS)
	}

	// A non-bootstrapped server has no run to report.
	bare := New(core.NewIncremental(100), 0, Config{})
	defer bare.Close()
	ts2 := httptest.NewServer(bare)
	defer ts2.Close()
	var raw map[string]any
	getJSON(t, ts2.URL+"/stats", &raw)
	if _, present := raw["last_run"]; present {
		t.Error("server without a bootstrap run reports last_run")
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics concurrently with writes
// and asserts the edge-request counter is monotone across scrapes and
// exact once the writers drain.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	srv := New(core.NewIncremental(1000), 0, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const writers, posts = 4, 25
	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		const sample = `afforest_http_requests_total{handler="edges"}`
		prev := -1.0
		for {
			select {
			case <-done:
				return
			default:
			}
			v, ok := scrapeSample(t, ts.URL, sample)
			if ok && v < prev {
				t.Errorf("scraped %s went backwards: %v after %v", sample, v, prev)
				return
			}
			if ok {
				prev = v
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < posts; i++ {
				u := graph.V(w*posts + i)
				postEdges(t, client, ts.URL, []graph.Edge{{U: u, V: u + 1}})
			}
		}(w)
	}
	wg.Wait()
	close(done)
	scraper.Wait()

	if v, ok := scrapeSample(t, ts.URL, `afforest_http_requests_total{handler="edges"}`); !ok || v != writers*posts {
		t.Errorf("final edges counter = %v, want %d", v, writers*posts)
	}
	// The /metrics handler counts itself too.
	if v, ok := scrapeSample(t, ts.URL, `afforest_http_requests_total{handler="metrics"}`); !ok || v < 1 {
		t.Errorf("metrics self-counter = %v, want >= 1", v)
	}
}

// TestDistinctRegistries: two servers with default configs get
// independent registries; their request counters do not bleed into each
// other even though both meter the shared default pool.
func TestDistinctRegistries(t *testing.T) {
	a := New(core.NewIncremental(10), 0, Config{})
	defer a.Close()
	b := New(core.NewIncremental(10), 0, Config{})
	defer b.Close()
	if a.Registry() == b.Registry() {
		t.Fatal("servers share a default registry")
	}
	tsA := httptest.NewServer(a)
	defer tsA.Close()
	tsB := httptest.NewServer(b)
	defer tsB.Close()
	resp, err := http.Get(tsA.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v, _ := scrapeSample(t, tsB.URL, `afforest_http_requests_total{handler="healthz"}`); v != 0 {
		t.Errorf("server B counted server A's healthz request: %v", v)
	}
	// Quiesce A's snapshot goroutine race window before Close.
	time.Sleep(time.Millisecond)
}
