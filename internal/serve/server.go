// Package serve hosts a graph as a live connectivity service: the
// paper's order-independent, lock-free link primitive (Theorem 1) means
// a long-lived connectivity index can absorb concurrent edge insertions
// and answer queries at any point without batch re-runs. The server
// bootstraps labels with a full Afforest run over the initial graph,
// then serves stdlib net/http JSON endpoints backed by the incremental
// core:
//
//	GET  /connected?u=&v=   point connectivity (live, lock-free)
//	GET  /component?v=      label + exact component size (live)
//	GET  /census?top=       component count + K largest (live)
//	POST /edges             insert edges, single or bulk (batched)
//	GET  /stats             counters, QPS, latency percentiles
//	GET  /metrics           Prometheus text exposition (obs registry)
//	GET  /healthz           liveness
//
// Writes coalesce into batches on the shared worker pool (edgeBatcher).
// Each flush folds its merges into an exact per-root size table, which
// /component, /census and the /events sizes read between batches;
// Close drains in-flight batches before returning; SaveSnapshot/Restore
// persist π for restart-without-rebuild.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/stats"
	"afforest/internal/wal"
)

// Config tunes a Server. The zero value is production-reasonable.
type Config struct {
	// BatchWindow is how long the write coalescer waits for more edges
	// after the first pending submission (0 = default 1ms; negative =
	// no waiting, flush whatever is queued).
	BatchWindow time.Duration
	// MaxBatch caps edges per coalesced batch (0 = default 8192).
	MaxBatch int
	// Parallelism bounds worker goroutines for the bootstrap run, batch
	// links and label exports (0 = GOMAXPROCS).
	Parallelism int
	// Registry receives the server's metrics and backs GET /metrics.
	// nil means a fresh private registry; share one to aggregate
	// several servers into a single exposition.
	Registry *obs.Registry
	// Anomaly watches the bootstrap run, every edge batch, pool
	// imbalance, and write latency for the streaming anomaly rules.
	// nil means a detector bound to Registry; pass one to share a
	// detector across servers.
	Anomaly *obs.AnomalyDetector
	// Flight, when set, is installed on the worker pool and among the
	// phase-span sinks, and every anomaly firing snapshots it. nil means
	// no flight recording.
	Flight *obs.FlightRecorder
	// WALDir, when non-empty, makes Open durable: every coalesced edge
	// batch is appended and fsynced to a write-ahead log there before it
	// is applied and acknowledged, and Open replays the log into the
	// structure before the server accepts traffic.
	WALDir string
	// WALSegmentBytes is the log's segment rotation threshold
	// (0 = wal default, 64MiB).
	WALSegmentBytes int64
	// WALNoSync drops the per-batch fsync: acknowledged writes may be
	// lost to a crash, and the wal_lag anomaly rule tracks the exposure.
	WALNoSync bool
	// WAL injects a pre-opened log instead of WALDir (tests, custom
	// filesystems). The server takes ownership and closes it on Close.
	WAL *wal.Log
	// Provenance enables the merge-forest: every successful merge records
	// its causal input edge, GET /explain and GET /history answer from it,
	// and WAL replay rebuilds it. Each flush then links serially, so the
	// recorded edges depend only on the batch. Off (the default), no
	// forest exists and flushes link in parallel.
	Provenance bool

	// prov carries a forest created before New runs (Open builds it ahead
	// of WAL replay so replayed merges are recorded). Internal hand-off.
	prov *provenance.Forest
}

func (c Config) withDefaults() Config {
	if c.BatchWindow == 0 {
		c.BatchWindow = time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8192
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Anomaly == nil {
		c.Anomaly = obs.NewAnomalyDetector(c.Registry)
	}
	return c
}

// sinks returns the consumers of the server's phase spans: run
// metrics, the anomaly detector and, when configured, the flight
// recorder. Call it on a config that has been through withDefaults.
func (c Config) sinks() []obs.Sink {
	sinks := []obs.Sink{obs.NewRunMetrics(c.Registry), c.Anomaly}
	if c.Flight != nil {
		sinks = append(sinks, c.Flight)
	}
	return sinks
}

// Server hosts one graph's connectivity. It implements http.Handler.
type Server struct {
	cfg Config
	inc *core.Incremental
	mux *http.ServeMux

	batcher *edgeBatcher
	writeMu sync.RWMutex // guards closed vs. in-flight enqueues
	closed  bool

	hub       *eventHub
	wal       *wal.Log         // nil without durability
	walReplay *wal.ReplayStats // startup replay outcome (set by Open)
	walLSN    *obs.Gauge       // afforest_wal_appended_lsn
	walDur    *obs.Gauge       // afforest_wal_durable_lsn

	prov        *provenance.Forest // nil unless cfg.Provenance
	provDepth   *obs.Gauge         // afforest_witness_depth (last /explain)
	provMem     *obs.Gauge         // afforest_provenance_memory_bytes
	provRecords *obs.Gauge         // afforest_provenance_records

	edges atomic.Int64 // accepted edges (initial graph + streamed)

	started  time.Time
	counts   counters
	readLat  *stats.LatencyRecorder
	writeLat *stats.LatencyRecorder

	lastRun atomic.Pointer[obs.Report] // bootstrap run's phase tree, if any
}

// counters is the per-handler request counter set: one registry family
// (afforest_http_requests_total, labeled by handler) surfaced by both
// /stats and /metrics, so the two endpoints read the same cells.
type counters struct {
	connected *obs.Counter
	component *obs.Counter
	census    *obs.Counter
	edges     *obs.Counter
	events    *obs.Counter
	explain   *obs.Counter
	history   *obs.Counter
	stats     *obs.Counter
	metrics   *obs.Counter
	healthz   *obs.Counter
	bad       *obs.Counter // 4xx responses
	rejected  *obs.Counter // writes refused during shutdown
	snapshots *obs.Counter
}

func newCounters(reg *obs.Registry) counters {
	h := func(name string) *obs.Counter {
		return reg.Counter("afforest_http_requests_total",
			"HTTP requests served, by handler.", obs.L("handler", name))
	}
	return counters{
		connected: h("connected"),
		component: h("component"),
		census:    h("census"),
		edges:     h("edges"),
		events:    h("events"),
		explain:   h("explain"),
		history:   h("history"),
		stats:     h("stats"),
		metrics:   h("metrics"),
		healthz:   h("healthz"),
		bad:       reg.Counter("afforest_http_errors_total", "Requests answered with a 4xx status."),
		rejected:  reg.Counter("afforest_writes_rejected_total", "Edge submissions refused during shutdown drain."),
		snapshots: reg.Counter("afforest_snapshots_total", "Label exports cut on demand by Refresh."),
	}
}

func (c *counters) total() int64 {
	return c.connected.Value() + c.component.Value() + c.census.Value() +
		c.edges.Value() + c.explain.Value() + c.history.Value() +
		c.stats.Value() + c.healthz.Value()
}

// New wraps an existing incremental structure. bootEdges seeds the
// accepted-edge counter (the number of edges already reflected in inc).
func New(inc *core.Incremental, bootEdges int64, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:      cfg,
		inc:      inc,
		mux:      http.NewServeMux(),
		started:  time.Now(),
		counts:   newCounters(reg),
		readLat:  stats.NewLatencyRecorder(stats.DefaultLatencyWindow),
		writeLat: stats.NewLatencyRecorder(stats.DefaultLatencyWindow),
	}
	// Mirror the latency rings into registry histograms: /stats and
	// /metrics summarize the same sample stream.
	s.readLat.Attach(reg.Histogram("afforest_read_latency_ns",
		"Read handler latency (connected/component/census).", obs.DefaultLatencyBuckets))
	s.writeLat.Attach(reg.Histogram("afforest_write_latency_ns",
		"Write handler latency (POST /edges, includes batch wait).", obs.DefaultLatencyBuckets))
	s.edges.Store(bootEdges)
	// Anomaly feeds: write latency (spike rule) and per-job pool
	// imbalance; flight snapshots on every firing when a recorder is
	// configured.
	s.writeLat.Tap(cfg.Anomaly.ObserveLatency)
	if cfg.Flight != nil {
		cfg.Anomaly.AttachFlight(cfg.Flight)
		concurrent.DefaultPool().SetFlight(cfg.Flight)
	}
	// The worker pool that executes batch flushes and label exports is
	// process-wide; report its utilization here. Deliberately global:
	// with several servers the last one wins, matching the pool itself.
	pm := obs.NewPoolMetrics(reg)
	pm.OnJob = cfg.Anomaly.ObserveImbalance
	concurrent.DefaultPool().SetMetrics(pm)
	// Provenance: create the merge-forest (or adopt the one Open built
	// so WAL replay recorded into it). The batcher records each flush's
	// merges after it releases the view lock: recording under that lock
	// would hold every size reader behind the forest's lock, which
	// /history holds for its whole scan. Gauges make forest growth
	// visible without hitting /debug.
	if cfg.Provenance {
		if cfg.prov == nil {
			cfg.prov = provenance.NewForest(inc.NumVertices())
		}
		s.prov = cfg.prov
		s.provDepth = reg.Gauge("afforest_witness_depth",
			"Hop count of the most recent /explain witness path.")
		s.provMem = reg.Gauge("afforest_provenance_memory_bytes",
			"Estimated resident size of the provenance merge-forest.")
		s.provRecords = reg.Gauge("afforest_provenance_records",
			"Merge records held by the provenance forest.")
		st := s.prov.StatsNow()
		s.provMem.Set(float64(st.MemoryBytes))
		s.provRecords.Set(float64(st.Records))
	}
	s.hub = newEventHub()
	s.wal = cfg.WAL
	if s.wal != nil {
		s.walLSN = reg.Gauge("afforest_wal_appended_lsn",
			"Last WAL record written (log sequence number).")
		s.walDur = reg.Gauge("afforest_wal_durable_lsn",
			"Last WAL record known fsynced; trailing appended = crash exposure.")
		ws := s.wal.Stats()
		s.walLSN.Set(float64(ws.AppendedLSN))
		s.walDur.Set(float64(ws.DurableLSN))
	}
	// The batcher bumps s.edges inside flush, before replying, so the
	// post-drain edge count is exact. It seeds the size table from inc
	// once here. With a WAL it appends and fsyncs each coalesced batch
	// before applying it (write-ahead), then reports the durability gap
	// to the gauges and the wal_lag rule.
	s.batcher = newEdgeBatcher(inc, cfg.BatchWindow, cfg.MaxBatch, cfg.Parallelism, &s.edges,
		cfg.sinks(),
		reg.Histogram("afforest_edge_apply_ns",
			"Wall time of one coalesced edge-batch parallel apply.", obs.DefaultLatencyBuckets))
	s.batcher.wal = s.wal
	s.batcher.hub = s.hub
	s.batcher.prov = s.prov
	if s.wal != nil {
		s.batcher.onWALLag = func(lsnDelta, byteDelta int64, appended, durable uint64) {
			s.walLSN.Set(float64(appended))
			s.walDur.Set(float64(durable))
			cfg.Anomaly.ObserveWALLag(lsnDelta, byteDelta)
		}
	}
	go s.batcher.run()
	s.mux.HandleFunc("GET /connected", s.handleConnected)
	s.mux.HandleFunc("GET /component", s.handleComponent)
	s.mux.HandleFunc("GET /census", s.handleCensus)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /history", s.handleHistory)
	s.mux.HandleFunc("GET /debug/provenance", s.handleProvenanceDump)
	s.mux.HandleFunc("POST /edges", s.handleEdges)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	metricsHandler := reg.Handler()
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.counts.metrics.Inc()
		metricsHandler.ServeHTTP(w, r)
	})
	return s
}

// Registry returns the registry backing this server's /metrics.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// Anomaly returns the server's anomaly detector (never nil after New).
func (s *Server) Anomaly() *obs.AnomalyDetector { return s.cfg.Anomaly }

// Flight returns the configured flight recorder, or nil.
func (s *Server) Flight() *obs.FlightRecorder { return s.cfg.Flight }

// LastRun returns the bootstrap run's phase-tree report, or nil when
// the server was built without a batch run (New/Restore).
func (s *Server) LastRun() *obs.Report { return s.lastRun.Load() }

// WALReplay returns the startup replay outcome, or nil when the server
// runs without a write-ahead log.
func (s *Server) WALReplay() *wal.ReplayStats { return s.walReplay }

// Provenance returns the merge-forest, or nil when cfg.Provenance is
// off. The forest is live: it answers Explain/History concurrently with
// streaming writes.
func (s *Server) Provenance() *provenance.Forest { return s.prov }

// Open is New plus durability: when cfg.WALDir is set (and no log was
// injected via cfg.WAL), it opens the write-ahead log there, replays
// every record past inc's applied watermark into inc — before the
// server exists, so no traffic races the rebuild — and serves with
// write-ahead appends. Replay damage to supposedly-durable history
// fires the replay_divergence anomaly but does not prevent startup;
// the verdict is surfaced in /stats under "wal".
func Open(inc *core.Incremental, bootEdges int64, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// The forest must exist before replay so replayed merges are recorded.
	// Replay applies each record, in LSN order, the way the live flush
	// applied it (applyBatch, then RecordMerges), so a boot from the log
	// rebuilds the forest the live server built — /explain answers
	// survive a crash byte-for-byte (the provenance-smoke property).
	if cfg.Provenance && cfg.prov == nil {
		cfg.prov = provenance.NewForest(inc.NumVertices())
	}
	var st wal.ReplayStats
	if cfg.WAL == nil && cfg.WALDir != "" {
		after := wal.LSN(inc.AppliedLSN())
		var replayed int64
		l, rst, err := wal.Open(cfg.WALDir, after, func(lsn wal.LSN, edges []graph.Edge) error {
			merges := applyBatch(inc, edges, cfg.Parallelism, cfg.prov)
			if cfg.prov != nil {
				cfg.prov.RecordMerges(edges, merges, uint64(lsn))
			}
			inc.MarkApplied(uint64(lsn))
			replayed += int64(len(edges))
			return nil
		}, wal.Options{SegmentBytes: cfg.WALSegmentBytes, NoSync: cfg.WALNoSync})
		if err != nil {
			return nil, fmt.Errorf("serve: opening wal at %s: %w", cfg.WALDir, err)
		}
		bootEdges += replayed
		cfg.WAL, st = l, rst
	}
	s := New(inc, bootEdges, cfg)
	if cfg.WALDir != "" || cfg.WAL != nil {
		s.walReplay = &st
		if st.Diverged {
			cfg.Anomaly.ObserveReplayDivergence(st.Divergence)
		}
	}
	return s, nil
}

// Bootstrap runs the full batch Afforest algorithm over g, restores an
// incremental structure from the resulting labels, and serves it. This
// is the fast path for cold starts with a known initial graph: the
// batch run (sampling + skipping) is much faster than streaming g's
// edges one by one.
func Bootstrap(g *graph.CSR, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opt := core.DefaultOptions()
	opt.Parallelism = cfg.Parallelism
	// Observe the bootstrap run itself: its phase tree becomes the
	// /stats "last_run" section and its counters land in the registry.
	// Installed before Run so the pool work it schedules is counted.
	pm := obs.NewPoolMetrics(cfg.Registry)
	pm.OnJob = cfg.Anomaly.ObserveImbalance
	concurrent.DefaultPool().SetMetrics(pm)
	if cfg.Flight != nil {
		cfg.Anomaly.AttachFlight(cfg.Flight)
		concurrent.DefaultPool().SetFlight(cfg.Flight)
	}
	opt.Observer = obs.NewTracer(cfg.sinks()...)
	p := core.Run(g, opt)
	inc, err := core.RestoreIncremental(p.Labels())
	if err != nil {
		return nil, fmt.Errorf("serve: bootstrap labels invalid: %w", err)
	}
	s, err := Open(inc, g.NumEdges(), cfg)
	if err != nil {
		return nil, err
	}
	s.lastRun.Store(opt.Observer.Report())
	return s, nil
}

// Restore loads a label snapshot persisted by SaveSnapshot and serves
// it — restart-without-rebuild. With cfg.WALDir set, the snapshot's
// watermark anchors replay: only records past it are re-applied (and
// re-applying a fuzzy overlap is harmless, union-find is idempotent).
func Restore(path string, cfg Config) (*Server, error) {
	labels, edges, lsn, err := graph.LoadLabelSnapshot(path)
	if err != nil {
		return nil, err
	}
	inc, err := core.RestoreIncremental(labels)
	if err != nil {
		return nil, err
	}
	inc.MarkApplied(lsn)
	return Open(inc, edges, cfg)
}

// SaveSnapshot persists the current labeling, accepted-edge count, and
// WAL watermark to path, then truncates log segments the snapshot has
// made redundant. It may be called at any time: the three are cut
// between whole batches, so they agree with each other.
func (s *Server) SaveSnapshot(path string) error {
	s.batcher.view.RLock()
	lsn := s.inc.AppliedLSN()
	labels := s.inc.Snapshot(s.cfg.Parallelism)
	edges := s.edges.Load()
	s.batcher.view.RUnlock()
	if err := graph.SaveLabelSnapshot(path, labels, edges, lsn); err != nil {
		return err
	}
	if s.wal != nil {
		if _, err := s.wal.TruncateThrough(wal.LSN(lsn)); err != nil {
			return fmt.Errorf("serve: truncating wal through lsn %d: %w", lsn, err)
		}
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// NumVertices returns the served graph's vertex count.
func (s *Server) NumVertices() int { return s.inc.NumVertices() }

// EdgesAccepted returns the total accepted edge count.
func (s *Server) EdgesAccepted() int64 { return s.edges.Load() }

// NumComponents returns the current component count.
func (s *Server) NumComponents() int { return s.inc.NumComponents() }

// Refresh exports the labeling on demand: π is compressed and copied
// between whole batches, so the result is exact for the batches applied
// so far and owned by the caller. Reads never need it; each call is an
// O(n) pass, counted in afforest_snapshots_total.
func (s *Server) Refresh() *Snapshot {
	s.batcher.view.RLock()
	defer s.batcher.view.RUnlock()
	s.counts.snapshots.Inc()
	return &Snapshot{Labels: s.inc.Snapshot(s.cfg.Parallelism)}
}

// Close shuts the server down gracefully: new writes are refused with
// 503, and every submission already accepted onto the batch queue is
// flushed (no accepted edge is ever lost). Read handlers keep working
// after Close; stop routing traffic at the http.Server level. Close is
// idempotent.
func (s *Server) Close() {
	s.writeMu.Lock()
	already := s.closed
	s.closed = true
	s.writeMu.Unlock()
	if already {
		return
	}
	// No enqueue can be in flight here: enqueues hold writeMu.RLock and
	// re-check closed, so closing the channel is race-free and flushes
	// the tail of the queue.
	close(s.batcher.submit)
	<-s.batcher.done
	// Every drained batch has been appended; fsync and close the active
	// segment now, before Close returns — the drain contract is that the
	// on-disk log is complete and cleanly replayable the moment
	// http.Shutdown (which calls Close first) hands control back.
	if s.wal != nil {
		if err := s.wal.Close(); err == nil {
			ws := s.wal.Stats()
			s.walDur.Set(float64(ws.DurableLSN))
		}
	}
	s.hub.close() // SSE streams end after the last drained batch's events
}

// enqueue hands edges to the batcher unless the server is draining.
func (s *Server) enqueue(edges []graph.Edge) (submitResult, bool) {
	sub := &submission{edges: edges, reply: make(chan submitResult, 1)}
	s.writeMu.RLock()
	if s.closed {
		s.writeMu.RUnlock()
		return submitResult{}, false
	}
	s.batcher.submit <- sub
	s.writeMu.RUnlock()
	return <-sub.reply, true
}

// --- handlers ---

func (s *Server) httpError(w http.ResponseWriter, code int, msg string) {
	s.counts.bad.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// vertexParam parses a vertex query parameter and range-checks it.
func (s *Server) vertexParam(r *http.Request, name string) (graph.V, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	x, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %v", raw, err)
	}
	if x >= uint64(s.inc.NumVertices()) {
		return 0, fmt.Errorf("vertex %d out of range (|V|=%d)", x, s.inc.NumVertices())
	}
	return graph.V(x), nil
}

func (s *Server) handleConnected(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.counts.connected.Inc()
	u, err := s.vertexParam(r, "u")
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	v, err := s.vertexParam(r, "v")
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, map[string]any{
		"u": u, "v": v,
		"connected": s.inc.Connected(u, v),
	})
	s.readLat.Observe(time.Since(start))
}

func (s *Server) handleComponent(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.counts.component.Inc()
	v, err := s.vertexParam(r, "v")
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	b := s.batcher
	b.view.RLock()
	label := s.inc.Find(v)
	size := b.sizes[label]
	b.view.RUnlock()
	writeJSON(w, map[string]any{"v": v, "label": label, "size": size})
	s.readLat.Observe(time.Since(start))
}

func (s *Server) handleCensus(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.counts.census.Inc()
	top := 10
	if raw := r.URL.Query().Get("top"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k < 0 {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad top %q", raw))
			return
		}
		top = k
	}
	b := s.batcher
	b.view.RLock()
	components, census := topComponents(b.sizes, top)
	edges := s.edges.Load()
	b.view.RUnlock()
	writeJSON(w, map[string]any{
		"vertices":   len(b.sizes),
		"components": components,
		"edges":      edges,
		"top":        census,
	})
	s.readLat.Observe(time.Since(start))
}

// maxEdgesBody caps a POST /edges body. It is far above any real batch
// (a bulk edge costs about 20 bytes of JSON) and only stops a request
// from making the server buffer an edge list of any size.
const maxEdgesBody = 4 << 20

// edgesRequest is the POST /edges body: either a single edge
// {"u":1,"v":2} or a bulk batch {"edges":[[1,2],[3,4],...]}.
type edgesRequest struct {
	U     *uint32     `json:"u"`
	V     *uint32     `json:"v"`
	Edges [][2]uint32 `json:"edges"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.counts.edges.Inc()
	var req edgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEdgesBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.httpError(w, code, "bad body: "+err.Error())
		return
	}
	var edges []graph.Edge
	switch {
	case req.Edges != nil:
		if req.U != nil || req.V != nil {
			s.httpError(w, http.StatusBadRequest, `provide either "u"/"v" or "edges", not both`)
			return
		}
		edges = make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
	case req.U != nil && req.V != nil:
		edges = []graph.Edge{{U: *req.U, V: *req.V}}
	default:
		s.httpError(w, http.StatusBadRequest, `provide "u" and "v", or "edges"`)
		return
	}
	n := uint32(s.inc.NumVertices())
	for _, e := range edges {
		if e.U >= n || e.V >= n {
			s.httpError(w, http.StatusBadRequest,
				fmt.Sprintf("edge {%d,%d} out of range (|V|=%d)", e.U, e.V, n))
			return
		}
	}
	res, ok := s.enqueue(edges)
	if !ok {
		s.counts.rejected.Inc()
		s.httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if res.err != nil {
		// The WAL append failed: the batch was not applied and must not
		// be acknowledged — the durability contract is ack ⇒ replayable.
		// (Not httpError: that counter tracks 4xx client mistakes.)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "write-ahead log append failed: " + res.err.Error()})
		return
	}
	body := map[string]any{
		"accepted": res.accepted,
		"merged":   res.merged,
	}
	if res.lsn > 0 {
		body["lsn"] = res.lsn
	}
	writeJSON(w, body)
	s.writeLat.Observe(time.Since(start))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.counts.stats.Inc()
	uptime := time.Since(s.started)
	total := s.counts.total()
	qps := 0.0
	if sec := uptime.Seconds(); sec > 0 {
		qps = float64(total) / sec
	}
	batches := s.batcher.batches.Load()
	batched := s.batcher.batchedEdges.Load()
	avgBatch := 0.0
	if batches > 0 {
		avgBatch = float64(batched) / float64(batches)
	}
	body := map[string]any{
		"uptime_seconds": uptime.Seconds(),
		"vertices":       s.inc.NumVertices(),
		"components":     s.inc.NumComponents(),
		"edges_accepted": s.edges.Load(),
		"qps":            qps,
		"requests": map[string]int64{
			"connected": s.counts.connected.Value(),
			"component": s.counts.component.Value(),
			"census":    s.counts.census.Value(),
			"edges":     s.counts.edges.Value(),
			"events":    s.counts.events.Value(),
			"explain":   s.counts.explain.Value(),
			"history":   s.counts.history.Value(),
			"stats":     s.counts.stats.Value(),
			"metrics":   s.counts.metrics.Value(),
			"healthz":   s.counts.healthz.Value(),
			"bad":       s.counts.bad.Value(),
			"rejected":  s.counts.rejected.Value(),
		},
		"read_latency":  s.readLat.Summary(),
		"write_latency": s.writeLat.Summary(),
		"batching": map[string]any{
			"batches":       batches,
			"batched_edges": batched,
			"merges":        s.batcher.merges.Load(),
			"max_batch":     s.batcher.maxSeen.Load(),
			"avg_batch":     avgBatch,
		},
		"snapshots": s.counts.snapshots.Value(),
		"anomalies": map[string]any{
			"count":  s.cfg.Anomaly.Count(),
			"recent": s.cfg.Anomaly.Recent(),
		},
	}
	if s.prov != nil {
		st := s.prov.StatsNow()
		s.provMem.Set(float64(st.MemoryBytes))
		s.provRecords.Set(float64(st.Records))
		body["provenance"] = st
	}
	published, evictions, live := s.hub.snapshot()
	body["events"] = map[string]any{
		"published":   published,
		"evictions":   evictions,
		"subscribers": live,
		"requests":    s.counts.events.Value(),
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		walBody := map[string]any{
			"dir":            s.wal.Dir(),
			"appended_lsn":   uint64(ws.AppendedLSN),
			"durable_lsn":    uint64(ws.DurableLSN),
			"lag_records":    uint64(ws.AppendedLSN - ws.DurableLSN),
			"lag_bytes":      ws.AppendedBytes - ws.DurableBytes,
			"segments":       ws.Segments,
			"applied_lsn":    s.inc.AppliedLSN(),
			"appended_bytes": ws.AppendedBytes,
		}
		if s.walReplay != nil {
			walBody["replay"] = s.walReplay
		}
		body["wal"] = walBody
	}
	if rep := s.lastRun.Load(); rep != nil {
		body["last_run"] = map[string]any{
			"total_ns": rep.TotalNS,
			"edges":    rep.Edges,
			"phases":   rep.Rows(),
		}
	}
	writeJSON(w, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.counts.healthz.Inc()
	writeJSON(w, map[string]any{
		"status":     "ok",
		"vertices":   s.inc.NumVertices(),
		"components": s.inc.NumComponents(),
	})
}
