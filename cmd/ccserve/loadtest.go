package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/serve"
	"afforest/internal/stats"
)

// loadConfig parameterizes the -loadtest workload.
type loadConfig struct {
	Duration time.Duration
	Clients  int
	ReadFrac float64 // fraction of requests that are reads
	Bulk     int     // edges per write request
	Seed     uint64
}

// loadReport summarizes one loadtest run.
type loadReport struct {
	Elapsed     time.Duration
	Reads       int64
	Writes      int64
	Edges       int64 // edges submitted across all writes
	Errors      int64
	Scrapes     int64 // successful /metrics scrapes during the run
	Explains    int64 // /explain + /history queries (provenance targets only)
	ExplainLat  stats.LatencySummary
	ServerStats map[string]any // decoded /stats at the end of the run
}

func (r loadReport) ops() int64 { return r.Reads + r.Writes }

func (r loadReport) String() string {
	sec := r.Elapsed.Seconds()
	s := fmt.Sprintf(
		"loadtest: %d ops in %v (%.0f ops/s): %d reads (%.0f/s), %d writes (%.0f/s, %d edges, %.0f edges/s), %d errors, %d metric scrapes",
		r.ops(), r.Elapsed.Round(time.Millisecond), float64(r.ops())/sec,
		r.Reads, float64(r.Reads)/sec,
		r.Writes, float64(r.Writes)/sec, r.Edges, float64(r.Edges)/sec,
		r.Errors, r.Scrapes)
	if r.Explains > 0 {
		s += fmt.Sprintf("; %d provenance queries (client p50=%v p99=%v)",
			r.Explains, r.ExplainLat.P50.Round(time.Microsecond), r.ExplainLat.P99.Round(time.Microsecond))
	}
	return s
}

// loadtestMain resolves the target (spinning up an in-process server
// from the graph flags when -target is empty), runs the workload, and
// prints the report plus the server's own latency digest.
func loadtestMain(target, in, genName, restore string, n, scale, deg int, seed uint64, cfg serve.Config, lc loadConfig) error {
	if target == "" {
		srv, err := buildServer(in, genName, restore, n, scale, deg, seed, cfg)
		if err != nil {
			return err
		}
		url, stop, err := startInProcess(srv)
		if err != nil {
			return err
		}
		defer stop()
		target = url
		fmt.Printf("in-process server: %d vertices, %d edges on %s\n",
			srv.NumVertices(), srv.EdgesAccepted(), url)
	}
	report, err := runLoadtest(target, lc)
	if err != nil {
		return err
	}
	fmt.Println(report)
	if rl, ok := report.ServerStats["read_latency"].(map[string]any); ok {
		fmt.Printf("server read latency:  p50=%v p99=%v\n", latencyMS(rl["p50"]), latencyMS(rl["p99"]))
	}
	if wl, ok := report.ServerStats["write_latency"].(map[string]any); ok {
		fmt.Printf("server write latency: p50=%v p99=%v\n", latencyMS(wl["p50"]), latencyMS(wl["p99"]))
	}
	if b, ok := report.ServerStats["batching"].(map[string]any); ok {
		fmt.Printf("server batching: %v batches, avg %.1f edges/batch\n", b["batches"], toFloat(b["avg_batch"]))
	}
	if pv, ok := report.ServerStats["provenance"].(map[string]any); ok {
		fmt.Printf("server provenance: %.0f merge records (%.0f ghost), %.0f bytes\n",
			toFloat(pv["records"]), toFloat(pv["ghost_records"]), toFloat(pv["memory_bytes"]))
	}
	return nil
}

func latencyMS(v any) time.Duration { return time.Duration(toFloat(v)) }

func toFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

// runLoadtest hammers target with lc.Clients goroutines issuing a
// seeded mixed read/write workload for lc.Duration. Reads split across
// /connected, /component, and /census; writes POST lc.Bulk random
// edges. Every client gets an independent derived seed so runs are
// reproducible.
func runLoadtest(target string, lc loadConfig) (loadReport, error) {
	if lc.Clients <= 0 {
		lc.Clients = 8
	}
	if lc.Bulk <= 0 {
		lc.Bulk = 8
	}
	if lc.ReadFrac < 0 || lc.ReadFrac > 1 {
		return loadReport{}, fmt.Errorf("read-frac %v out of [0,1]", lc.ReadFrac)
	}
	// The vertex universe comes from the server itself.
	var health struct {
		Vertices int `json:"vertices"`
	}
	if err := getInto(target+"/healthz", &health); err != nil {
		return loadReport{}, fmt.Errorf("target %s not healthy: %w", target, err)
	}
	n := health.Vertices
	if n < 2 {
		return loadReport{}, fmt.Errorf("target serves %d vertices; need at least 2", n)
	}

	// Probe once for the provenance surface: when the target serves
	// /explain, the read mix includes witness and history queries, timed
	// client-side on their own recorder (they walk the merge forest, so
	// their latency profile is interesting apart from /connected's).
	provOn := drainGet(&http.Client{}, target+"/explain?u=0&v=1") == nil
	explainLat := stats.NewLatencyRecorder(0)

	var reads, writes, edges, errs, scrapes, explains atomic.Int64
	start := time.Now()
	deadline := start.Add(lc.Duration)
	var wg sync.WaitGroup

	// One scraper goroutine polls GET /metrics throughout the run — the
	// exposition encoder is continuously exercised while every counter
	// and histogram it reads is being hammered, which is exactly the
	// concurrent-scrape regime the obs registry is built for.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		client := &http.Client{}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
				if err := drainGet(client, target+"/metrics"); err == nil {
					scrapes.Add(1)
				}
			}
		}
	}()
	for c := 0; c < lc.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(lc.Seed) + int64(c)*7919))
			client := &http.Client{}
			for time.Now().Before(deadline) {
				if rng.Float64() < lc.ReadFrac {
					var url string
					prov := false
					switch r := rng.Intn(12); {
					case r < 7:
						url = target + "/connected?u=" + strconv.Itoa(rng.Intn(n)) + "&v=" + strconv.Itoa(rng.Intn(n))
					case r < 9:
						url = target + "/component?v=" + strconv.Itoa(rng.Intn(n))
					case r < 10 || !provOn:
						url = target + "/census?top=5"
					case r < 11:
						url = target + "/explain?u=" + strconv.Itoa(rng.Intn(n)) + "&v=" + strconv.Itoa(rng.Intn(n))
						prov = true
					default:
						url = target + "/history?v=" + strconv.Itoa(rng.Intn(n))
						prov = true
					}
					t0 := time.Now()
					if err := drainGet(client, url); err != nil {
						errs.Add(1)
					} else {
						reads.Add(1)
						if prov {
							explains.Add(1)
							explainLat.Observe(time.Since(t0))
						}
					}
				} else {
					pairs := make([][2]uint32, lc.Bulk)
					for i := range pairs {
						pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
					}
					body, _ := json.Marshal(map[string]any{"edges": pairs})
					resp, err := client.Post(target+"/edges", "application/json", bytes.NewReader(body))
					if err != nil {
						errs.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs.Add(1)
						continue
					}
					writes.Add(1)
					edges.Add(int64(lc.Bulk))
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone
	report := loadReport{
		Elapsed:    time.Since(start), // configured duration + drain of the last in-flight requests
		Reads:      reads.Load(),
		Writes:     writes.Load(),
		Edges:      edges.Load(),
		Errors:     errs.Load(),
		Scrapes:    scrapes.Load(),
		Explains:   explains.Load(),
		ExplainLat: explainLat.Summary(),
	}
	var stats map[string]any
	if err := getInto(target+"/stats", &stats); err == nil {
		report.ServerStats = stats
	}
	return report, nil
}

func getInto(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func drainGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
