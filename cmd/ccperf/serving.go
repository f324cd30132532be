package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/serve"
	"afforest/internal/testkit"
	"afforest/internal/wal"
)

// reqKind is one request class of the serving workloads.
type reqKind uint8

const (
	kindEdges reqKind = iota
	kindConnected
	kindComponent
	kindCensus
	kindExplain
	kindHistory
)

var kindNames = [...]string{"edges", "connected", "component", "census", "explain", "history"}

// mix is one serving workload's traffic: an open loop with Poisson
// arrivals at rate, a writeFrac share of POST /edges carrying pairs
// random edges each, and reads split by weight.
type mix struct {
	name       string
	rate       float64
	writeFrac  float64
	pairs      int
	reads      []readClass
	opIsWrite  bool // the op is the write (ingest) or any read (query)
	provenance bool
	// streamEdges random edges (at scale 20; halved per scale step
	// below) are posted in bulk-64 requests during set-up, to grow the
	// merge forest the reads walk.
	streamEdges int
}

type readClass struct {
	kind   reqKind
	weight int
}

const (
	streamBulk    = 64
	streamWorkers = 16
	explainSample = 10 // every explainSample-th /explain witness is checked
	refreshes     = 5  // timed Server.Refresh calls after the timed phase
)

// ingestMix makes the ack path do the work: handler, batch window, WAL
// append and fsync, incremental apply.
var ingestMix = mix{
	name: "ingest", rate: 5000, writeFrac: 0.8, pairs: 8,
	reads:     []readClass{{kindConnected, 1}},
	opIsWrite: true,
}

// queryMix reads through the snapshot cache and the merge forest beside
// a trickle of writes.
var queryMix = mix{
	name: "query", rate: 500, writeFrac: 0.1, pairs: 8,
	reads: []readClass{
		{kindConnected, 50}, {kindComponent, 20}, {kindCensus, 5}, {kindExplain, 15}, {kindHistory, 10},
	},
	provenance:  true,
	streamEdges: 200000,
}

// request is one scheduled request, built before the run.
type request struct {
	due    time.Duration // offset from the start of the timed phase
	kind   reqKind
	target string
	body   []byte
	edges  []graph.Edge
}

// buildSchedule draws the timed phase's requests from the seed. stream
// is the set-up stream the /explain pairs are drawn from.
func buildSchedule(seed uint64, n int, seconds float64, m mix, stream []graph.Edge) []request {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	pairs := newPairPicker(n, stream)
	totalWeight := 0
	for _, r := range m.reads {
		totalWeight += r.weight
	}
	var reqs []request
	for t := rng.ExpFloat64() / m.rate; t < seconds; t += rng.ExpFloat64() / m.rate {
		r := request{due: time.Duration(t * float64(time.Second))}
		if rng.Float64() < m.writeFrac {
			r.kind = kindEdges
			r.edges = randomEdges(rng, n, m.pairs)
			r.target = "/edges"
			r.body = edgesBody(r.edges)
			reqs = append(reqs, r)
			continue
		}
		w := rng.IntN(totalWeight)
		for _, c := range m.reads {
			if w < c.weight {
				r.kind = c.kind
				break
			}
			w -= c.weight
		}
		u, v := rng.IntN(n), rng.IntN(n)
		switch r.kind {
		case kindConnected:
			r.target = fmt.Sprintf("/connected?u=%d&v=%d", u, v)
		case kindComponent:
			r.target = fmt.Sprintf("/component?v=%d", u)
		case kindCensus:
			r.target = "/census?top=5"
		case kindExplain:
			u, v = pairs.pick(rng, u, v)
			r.target = fmt.Sprintf("/explain?u=%d&v=%d", u, v)
		case kindHistory:
			r.target = fmt.Sprintf("/history?v=%d", u)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// pairPicker draws /explain pairs from one component of the set-up
// stream's own edges. The bootstrap's matching edges predate provenance,
// so the merge forest holds a witness only between vertices the stream
// connected; a uniformly random pair almost never has one.
type pairPicker struct {
	edges  []graph.Edge
	root   []graph.V             // union-find over the stream edges alone
	groups map[graph.V][]graph.V // root → members, in stream order
}

func newPairPicker(n int, stream []graph.Edge) *pairPicker {
	p := &pairPicker{edges: stream, root: make([]graph.V, n), groups: map[graph.V][]graph.V{}}
	for v := range p.root {
		p.root[v] = graph.V(v)
	}
	for _, e := range stream {
		if a, b := p.find(e.U), p.find(e.V); a != b {
			p.root[max(a, b)] = min(a, b)
		}
	}
	seen := make([]bool, n)
	for _, e := range stream {
		for _, v := range [2]graph.V{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				r := p.find(v)
				p.groups[r] = append(p.groups[r], v)
			}
		}
	}
	return p
}

func (p *pairPicker) find(v graph.V) graph.V {
	for p.root[v] != v {
		p.root[v] = p.root[p.root[v]]
		v = p.root[v]
	}
	return v
}

// pick returns two distinct members of the stream component of a
// random stream edge, or (u, v) unchanged when there is no stream.
func (p *pairPicker) pick(rng *rand.Rand, u, v int) (int, int) {
	if len(p.edges) == 0 {
		return u, v
	}
	g := p.groups[p.find(p.edges[rng.IntN(len(p.edges))].U)]
	if len(g) < 2 { // a self-loop alone in its component
		return int(g[0]), int(g[0])
	}
	i, j := rng.IntN(len(g)), rng.IntN(len(g)-1)
	if j >= i {
		j++
	}
	return int(g[i]), int(g[j])
}

// streamBatches draws the set-up stream: count random edges in
// bulk-sized requests.
func streamBatches(seed uint64, n, count int) [][]graph.Edge {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	var batches [][]graph.Edge
	for count > 0 {
		k := min(count, streamBulk)
		batches = append(batches, randomEdges(rng, n, k))
		count -= k
	}
	return batches
}

func randomEdges(rng *rand.Rand, n, k int) []graph.Edge {
	edges := make([]graph.Edge, k)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(rng.IntN(n)), V: graph.V(rng.IntN(n))}
	}
	return edges
}

func edgesBody(edges []graph.Edge) []byte {
	b := []byte(`{"edges":[`)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// served is one bootstrapped server with its durable log.
type served struct {
	srv    *serve.Server
	g      *graph.CSR
	walDir string
	walIO  *walIO
}

func (s *served) close() {
	s.srv.Close()
	os.RemoveAll(s.walDir)
}

// bootServer is the serving set-up: build the initial graph, open a
// fresh WAL on disk through the timing FS, bootstrap the server on it,
// and post the set-up stream.
func bootServer(cfg config, m mix, idx int, stream [][]graph.Edge, buildS *[]float64) (*served, error) {
	t := time.Now()
	g := gen.Regular(1<<cfg.scale, 1, cfg.seed)
	*buildS = append(*buildS, secs(time.Since(t)))
	dir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%s-%d-%d", m.name, os.Getpid(), idx))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	wio := &walIO{}
	walLog, _, err := wal.Open(dir, 0, func(wal.LSN, []graph.Edge) error {
		return errors.New("fresh log replayed a record")
	}, wal.Options{FS: timedFS{wal.OSFS, wio}})
	if err != nil {
		return nil, err
	}
	srv, err := serve.Bootstrap(g, serve.Config{Parallelism: cfg.procs, WAL: walLog, Provenance: m.provenance})
	if err != nil {
		walLog.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &served{srv: srv, g: g, walDir: dir, walIO: wio}
	if err := postStream(srv, stream); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// postStream sends the set-up stream through the handler from a few
// concurrent clients, so the batcher coalesces it as it would live
// traffic.
func postStream(h http.Handler, batches [][]graph.Edge) error {
	var next atomic.Int64
	errs := make([]error, streamWorkers)
	var wg sync.WaitGroup
	for w := 0; w < streamWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(batches); i = int(next.Add(1) - 1) {
				code, body := do(h, request{kind: kindEdges, target: "/edges", body: edgesBody(batches[i])})
				if code != http.StatusOK || !acceptedAll(body, len(batches[i])) {
					errs[w] = fmt.Errorf("set-up stream: POST /edges answered %d %s", code, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// do sends one request through the handler in-process.
func do(h http.Handler, r request) (int, []byte) {
	method := http.MethodGet
	var body io.Reader
	if r.kind == kindEdges {
		method = http.MethodPost
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, r.target, body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// acceptedAll reports whether a POST /edges ack accepted want edges.
func acceptedAll(body []byte, want int) bool {
	var ack struct {
		Accepted int `json:"accepted"`
	}
	return json.Unmarshal(body, &ack) == nil && ack.Accepted == want
}

// outcome is one timed request's result. Each request's goroutine
// writes only its own slot.
type outcome struct {
	late, lat, handler time.Duration
	code               int
	ok                 bool   // 200, and for a write every edge accepted
	body               []byte // kept for sampled /explain responses
}

// drive sends reqs open-loop: each request leaves at its due time on
// its own goroutine, whatever the state of earlier ones. Latency runs
// from the due time, so a stall also charges the requests queued
// behind it. It returns when every request has been answered.
func drive(h http.Handler, reqs []request, rec *recorder) ([]outcome, int64) {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	var inflight, maxInflight atomic.Int64
	explains := 0
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		sleepUntil(due)
		out[i].late = time.Since(due)
		sample := false
		if reqs[i].kind == kindExplain {
			sample = explains%explainSample == 0
			explains++
		}
		wg.Add(1)
		go func(i int, due time.Time, sample bool) {
			defer wg.Done()
			n := inflight.Add(1)
			for m := maxInflight.Load(); n > m && !maxInflight.CompareAndSwap(m, n); m = maxInflight.Load() {
			}
			t0 := time.Now()
			code, body := do(h, reqs[i])
			t1 := time.Now()
			inflight.Add(-1)
			o := &out[i]
			o.lat, o.handler, o.code = t1.Sub(due), t1.Sub(t0), code
			o.ok = code == http.StatusOK
			if reqs[i].kind == kindEdges && o.ok {
				o.ok = acceptedAll(body, len(reqs[i].edges))
			}
			if sample {
				o.body = body
			}
			if rec != nil {
				rec.addRoot("serve", kindNames[reqs[i].kind], int64(i), t0, t1)
			}
		}(i, due, sample)
		// Let the request start on this P before the generator blocks
		// in nanosleep, which keeps the P until the runtime retakes it.
		runtime.Gosched()
	}
	wg.Wait()
	return out, maxInflight.Load()
}

// sleepUntil blocks until t. time.Sleep cannot wait less than about a
// millisecond while the scheduler is idle (the runtime's poller waits in
// whole milliseconds), which would release requests in millisecond
// bursts; nanosleep wakes within the kernel's timer slack, about 50µs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // a signal ends it early; the loop resumes
	}
}

// regReading is one reading of the server registry's batcher and
// snapshot counters; a phase reports the difference of two.
type regReading struct {
	apply                    obs.HistogramSnapshot
	edges, merges, snapshots int64
}

func readRegistry(reg *obs.Registry) regReading {
	return regReading{
		apply:     reg.Histogram("afforest_edge_apply_ns", "", obs.DefaultLatencyBuckets).Snapshot(),
		edges:     reg.Counter("afforest_edges_processed_total", "").Value(),
		merges:    reg.Counter("afforest_edge_merges_total", "").Value(),
		snapshots: reg.Counter("afforest_snapshots_total", "").Value(),
	}
}

// runServing runs the ingest or query workload. One op is a POST
// /edges (ingest) or a GET (query), timed from its due time to its
// answer.
func runServing(cfg config, rec *recorder, b *box, m mix) (*phase, error) {
	ph := newPhase()
	n := 1 << cfg.scale
	stream := streamBatches(cfg.seed, n, m.streamEdges>>max(0, 20-cfg.scale))
	reqs := buildSchedule(cfg.seed, n, cfg.seconds, m, flatten(stream))
	base := heapMB()
	// The control sets run before the first server exists and after the
	// last one closed: a live server's snapshot loop would disturb them.
	b.control()

	var buildS []float64
	idx := 0
	s, setupS, err := setupMedian(func() (*served, error) {
		idx++
		return bootServer(cfg, m, idx, stream, &buildS)
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ph.e2e["setup_s"] = setupS
	ph.layer["graph.build_s"] = median(buildS)

	reg := s.srv.Registry()
	before := readRegistry(reg)
	s.walIO.reset(rec)
	gc0 := gcPause()
	cpu0 := cpuNow()
	t0 := time.Now()
	out, maxInflight := drive(s.srv, reqs, rec)
	elapsed := time.Since(t0)
	cpu := cpuNow() - cpu0
	ph.layer["proc.gc_pause_ms"] = ms(gcPause() - gc0)
	ph.e2e["live_heap_mb"] = liveHeapMB() - base
	after := readRegistry(reg)
	wio := s.walIO.reset(nil)

	var refreshMS []float64
	var snap *serve.Snapshot
	for i := 0; i < refreshes; i++ {
		t := time.Now()
		snap = s.srv.Refresh()
		refreshMS = append(refreshMS, ms(time.Since(t)))
	}

	// Latencies and per-class handler times.
	opLat := make([][]float64, timedSets)
	var late, edgesH, readH, explainH []float64
	var acked []graph.Edge
	var explainBodies [][]byte
	for i, o := range out {
		late = append(late, us(o.late))
		ph.attempted++
		if !o.ok {
			ph.failed++
			if reqs[i].kind == kindEdges && o.code == http.StatusOK {
				ph.fail(fmt.Errorf("%s: request %d: ack did not accept all %d edges", m.name, i, len(reqs[i].edges)))
			}
			continue
		}
		if (reqs[i].kind == kindEdges) == m.opIsWrite {
			q := quarterOf(reqs[i].due, time.Duration(cfg.seconds*float64(time.Second)))
			opLat[q] = append(opLat[q], ms(o.lat))
		}
		switch reqs[i].kind {
		case kindEdges:
			edgesH = append(edgesH, ms(o.handler))
			acked = append(acked, reqs[i].edges...)
		case kindExplain:
			explainH = append(explainH, us(o.handler))
			readH = append(readH, us(o.handler))
		default:
			readH = append(readH, us(o.handler))
		}
		if o.body != nil {
			explainBodies = append(explainBodies, o.body)
		}
	}
	if len(edgesH)+len(readH) == 0 {
		return nil, fmt.Errorf("%s: no successful requests in %v", m.name, elapsed)
	}
	ph.setOps(opLat, us(cpu)/float64(len(reqs)))

	sec := elapsed.Seconds()
	batches := float64(after.apply.Count - before.apply.Count)
	edges := float64(after.edges - before.edges)
	apply := deltaHistogram(before.apply, after.apply)
	edgesP50 := quantile(edgesH, 0.5)
	walP50 := (quantile(wio.writes, 0.5) + quantile(wio.syncs, 0.5)) / 1e3
	l := ph.layer
	l["incr.apply_us_per_batch_p50"] = apply.Quantile(0.5) / 1e3
	l["incr.apply_ns_per_edge"] = ratio(apply.Sum, edges)
	l["incr.merges_per_edge"] = ratio(float64(after.merges-before.merges), edges)
	l["serve.edges_handler_ms_p50"] = edgesP50
	l["serve.edges_handler_ms_p99"] = quantile(edgesH, 0.99)
	l["serve.read_handler_us_p50"] = quantile(readH, 0.5)
	l["serve.read_handler_us_p99"] = quantile(readH, 0.99)
	l["serve.batch_wait_ms_p50"] = edgesP50 - walP50 - apply.Quantile(0.5)/1e6
	l["serve.batch_edges_mean"] = ratio(edges, batches)
	l["serve.batches_per_s"] = batches / sec
	l["serve.snapshot_refresh_ms"] = median(refreshMS)
	l["serve.snapshots"] = float64(after.snapshots - before.snapshots)
	l["wal.write_us_p50"] = quantile(wio.writes, 0.5)
	l["wal.fsync_us_p50"] = quantile(wio.syncs, 0.5)
	l["wal.fsync_us_p99"] = quantile(wio.syncs, 0.99)
	l["wal.fsyncs_per_s"] = float64(len(wio.syncs)) / sec
	l["wal.edges_per_fsync"] = ratio(edges, float64(len(wio.syncs)))
	l["wal.bytes_per_edge"] = ratio(float64(wio.bytes), edges)
	l["gen.late_us_p50"] = quantile(late, 0.5)
	l["gen.late_us_p99"] = quantile(late, 0.99)
	l["gen.max_inflight"] = float64(maxInflight)
	if f := s.srv.Provenance(); f != nil {
		st := f.StatsNow()
		l["prov.records"] = float64(st.Records)
		l["prov.bytes_per_record"] = ratio(float64(st.MemoryBytes), float64(st.Records))
		l["prov.explain_handler_us_p50"] = quantile(explainH, 0.5)
	}

	// Correctness: labels against the oracle, the WAL against the
	// labels, sampled witnesses against the submitted edges.
	submitted := append(flatten(stream), acked...)
	ph.fail(checkLabels(m.name+"/final labels", snap.Labels, oracle(s.g, submitted)))
	ph.fail(checkReplay(s, snap.Labels, cfg.procs))
	if m.provenance {
		edgeSet := testkit.NewEdgeSet(append(s.g.Edges(), submitted...))
		var hops []float64
		for _, body := range explainBodies {
			h, err := checkExplain(body, edgeSet)
			ph.fail(err)
			if h > 0 {
				hops = append(hops, float64(h))
			}
		}
		l["prov.witness_hops_mean"] = mean(hops)
	}
	b.control()
	return ph, nil
}

// checkReplay closes the server, replays its WAL into a fresh
// incremental structure restored from the bootstrap labels, and
// compares the result with the final labels.
func checkReplay(s *served, final []graph.V, procs int) error {
	s.srv.Close()
	inc, err := core.RestoreIncremental(oracle(s.g, nil))
	if err != nil {
		return err
	}
	st, err := wal.Replay(wal.OSFS, s.walDir, 0, func(lsn wal.LSN, edges []graph.Edge) error {
		for _, e := range edges {
			inc.AddEdgeAt(e.U, e.V, uint64(lsn))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	if st.Diverged || st.Tail != "" {
		return fmt.Errorf("wal replay after a clean close: diverged=%v (%s) tail=%q", st.Diverged, st.Divergence, st.Tail)
	}
	return checkLabels("wal replay", inc.Labels(procs), final)
}

func flatten(batches [][]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// deltaHistogram returns the observations between two snapshots of one
// histogram.
func deltaHistogram(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)),
		Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}
