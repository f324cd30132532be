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
// The HTTP contract itself (parsing, limits, statuses, JSON shapes,
// request counters, latency recorders) is Surface, which answers for a
// Backend: Server here, cluster.Router in the sharded deployment.
//
// Writes coalesce into batches on the shared worker pool (edgeBatcher).
// Each flush folds its merges into an exact per-root size table, which
// /component, /census and the /events sizes read between batches;
// Close drains in-flight batches before returning; SaveSnapshot/Restore
// persist π for restart-without-rebuild.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/wal"
)

// Config tunes a Server. The zero value is production-reasonable.
type Config struct {
	// Parallelism bounds worker goroutines for the bootstrap run, batch
	// links and label exports (0 = GOMAXPROCS).
	Parallelism int
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
	// reg backs GET /metrics, and anom watches the bootstrap run, every
	// edge batch, pool imbalance, write latency and the WAL for the
	// streaming anomaly rules. withDefaults builds both, so Bootstrap's
	// run and the server it hands off to share them.
	reg  *obs.Registry
	anom *obs.AnomalyDetector
}

func (c Config) withDefaults() Config {
	if c.reg == nil {
		c.reg = obs.NewRegistry()
		c.anom = obs.NewAnomalyDetector(c.reg)
	}
	return c
}

// sinks returns the consumers of the server's phase spans: run
// metrics, the anomaly detector and, when configured, the flight
// recorder. Call it on a config that has been through withDefaults.
func (c Config) sinks() []obs.Sink {
	sinks := []obs.Sink{obs.NewRunMetrics(c.reg), c.anom}
	if c.Flight != nil {
		sinks = append(sinks, c.Flight)
	}
	return sinks
}

// Server hosts one graph's connectivity. It implements http.Handler
// through the shared Surface, as its Backend, and adds the routes only a
// single node serves: /component, /events, /history and
// /debug/provenance.
type Server struct {
	cfg Config
	inc *core.Incremental
	api *Surface

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

	edges     atomic.Int64 // accepted edges (initial graph + streamed)
	snapshots *obs.Counter // afforest_snapshots_total

	lastRun atomic.Pointer[obs.Report] // bootstrap run's phase tree, if any
}

// New wraps an existing incremental structure. bootEdges seeds the
// accepted-edge counter (the number of edges already reflected in inc).
func New(inc *core.Incremental, bootEdges int64, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.reg
	s := &Server{
		cfg:       cfg,
		inc:       inc,
		snapshots: reg.Counter("afforest_snapshots_total", "Label exports cut on demand by Refresh."),
	}
	s.api = NewSurface(s, reg, cfg.anom)
	s.edges.Store(bootEdges)
	// Anomaly feeds: write latency (spike rule) and per-job pool
	// imbalance; flight snapshots on every firing when a recorder is
	// configured.
	s.api.writeLat.Tap(cfg.anom.ObserveLatency)
	if cfg.Flight != nil {
		cfg.anom.AttachFlight(cfg.Flight)
		concurrent.DefaultPool().SetFlight(cfg.Flight)
	}
	// The worker pool that executes batch flushes and label exports is
	// process-wide; report its utilization here. Deliberately global:
	// with several servers the last one wins, matching the pool itself.
	pm := obs.NewPoolMetrics(reg)
	pm.OnJob = cfg.anom.ObserveImbalance
	concurrent.DefaultPool().SetMetrics(pm)
	// Provenance: create the merge-forest (or adopt the one Open built
	// so WAL replay recorded into it). The batcher records each flush's
	// merges after it releases the view lock, so no size reader waits on
	// the forest's lock, then refreshes the forest gauges, which make its
	// growth visible without hitting /debug.
	if cfg.Provenance {
		if cfg.prov == nil {
			cfg.prov = provenance.NewForest(inc.NumVertices())
		}
		s.prov = cfg.prov
		s.provDepth = reg.Gauge("afforest_witness_depth",
			"Hop count of the most recent /explain witness path.")
		s.provMem = reg.Gauge("afforest_provenance_memory_bytes",
			"Bytes the provenance merge-forest retains: the capacities of its arrays.")
		s.provRecords = reg.Gauge("afforest_provenance_records",
			"Merge records held by the provenance forest.")
		s.provStats()
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
	s.batcher = newEdgeBatcher(inc, cfg.Parallelism, &s.edges,
		cfg.sinks(),
		reg.Histogram("afforest_edge_apply_ns",
			"Wall time of one coalesced edge-batch parallel apply.", obs.DefaultLatencyBuckets))
	s.batcher.wal = s.wal
	s.batcher.hub = s.hub
	s.batcher.prov = s.prov
	s.batcher.onProv = func() { s.provStats() }
	if s.wal != nil {
		s.batcher.onWALLag = func(lsnDelta, byteDelta int64, appended, durable uint64) {
			s.walLSN.Set(float64(appended))
			s.walDur.Set(float64(durable))
			cfg.anom.ObserveWALLag(lsnDelta, byteDelta)
		}
	}
	go s.batcher.run()
	s.api.Handle("GET /component", "component", s.handleComponent)
	s.api.Handle("GET /events", "events", s.handleEvents)
	s.api.Handle("GET /history", "history", s.handleHistory)
	s.api.Handle("GET /debug/provenance", "", s.handleProvenanceDump)
	return s
}

// provStats reads the forest's stats and sets its two gauges from them.
func (s *Server) provStats() provenance.Stats {
	st := s.prov.StatsNow()
	s.provMem.Set(float64(st.MemoryBytes))
	s.provRecords.Set(float64(st.Records))
	return st
}

// Registry returns the registry backing this server's /metrics.
func (s *Server) Registry() *obs.Registry { return s.cfg.reg }

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
			cfg.anom.ObserveReplayDivergence(st.Divergence)
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
	pm := obs.NewPoolMetrics(cfg.reg)
	pm.OnJob = cfg.anom.ObserveImbalance
	concurrent.DefaultPool().SetMetrics(pm)
	if cfg.Flight != nil {
		cfg.anom.AttachFlight(cfg.Flight)
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
	s.api.ServeHTTP(w, r)
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
	s.snapshots.Inc()
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

// errDraining refuses a write or subscription once Close has begun.
var errDraining = &StatusError{Code: http.StatusServiceUnavailable, Err: errors.New("server is draining")}

// --- Backend ---

// Connected reports whether u and v are in the same component (live,
// lock-free).
func (s *Server) Connected(u, v graph.V) (bool, error) {
	return s.inc.Connected(u, v), nil
}

// ComponentSizes calls fn with the exact per-root size table and the
// accepted-edge count, between whole batches.
func (s *Server) ComponentSizes(fn func(sizes []int32, edges int64)) error {
	b := s.batcher
	b.view.RLock()
	defer b.view.RUnlock()
	fn(b.sizes, s.edges.Load())
	return nil
}

// SubmitEdges hands edges to the write coalescer and waits for the
// batch that carries them to be logged (with a WAL) and applied.
func (s *Server) SubmitEdges(edges []graph.Edge) (Ack, error) {
	res, ok := s.enqueue(edges)
	if !ok {
		return Ack{}, errDraining
	}
	if res.err != nil {
		// The WAL append failed: the batch was not applied and must not
		// be acknowledged — the durability contract is ack ⇒ replayable.
		return Ack{}, &StatusError{Code: http.StatusInternalServerError,
			Err: fmt.Errorf("write-ahead log append failed: %w", res.err)}
	}
	return Ack{Accepted: res.accepted, Merged: int64(res.merged), LSN: res.lsn}, nil
}

// Health adds the component count to /healthz; the status is
// "degraded" once the write-ahead log has stopped, since every write is
// then refused.
func (s *Server) Health(body map[string]any) string {
	body["components"] = s.inc.NumComponents()
	if s.wal != nil && s.wal.Err() != nil {
		return "degraded"
	}
	return "ok"
}

// StatsSections adds the batching, event, provenance, WAL and bootstrap
// sections to /stats.
func (s *Server) StatsSections(body map[string]any) {
	batches := s.batcher.batches.Load()
	batched := s.batcher.batchedEdges.Load()
	avgBatch := 0.0
	if batches > 0 {
		avgBatch = float64(batched) / float64(batches)
	}
	body["components"] = s.inc.NumComponents()
	body["batching"] = map[string]any{
		"batches":       batches,
		"batched_edges": batched,
		"merges":        s.batcher.merges.Load(),
		"max_batch":     s.batcher.maxSeen.Load(),
		"avg_batch":     avgBatch,
	}
	body["snapshots"] = s.snapshots.Value()
	if s.prov != nil {
		body["provenance"] = s.provStats()
	}
	published, evictions, live := s.hub.snapshot()
	body["events"] = map[string]any{
		"published":   published,
		"evictions":   evictions,
		"subscribers": live,
		"requests":    s.api.requests["events"].Value(),
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		var walErr any // null while the log is healthy
		if err := s.wal.Err(); err != nil {
			walErr = err.Error()
		}
		walBody := map[string]any{
			"dir":            s.wal.Dir(),
			"appended_lsn":   uint64(ws.AppendedLSN),
			"durable_lsn":    uint64(ws.DurableLSN),
			"lag_records":    uint64(ws.AppendedLSN - ws.DurableLSN),
			"lag_bytes":      ws.AppendedBytes - ws.DurableBytes,
			"segments":       ws.Segments,
			"applied_lsn":    s.inc.AppliedLSN(),
			"appended_bytes": ws.AppendedBytes,
			"failed_batches": s.batcher.walFailed.Load(),
			"error":          walErr,
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
}

// --- single-node handlers ---

func (s *Server) handleComponent(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	v, err := s.api.vertexParam(r, "v")
	if err != nil {
		s.api.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	b := s.batcher
	b.view.RLock()
	label := s.inc.Find(v)
	size := b.sizes[label]
	b.view.RUnlock()
	WriteJSON(w, map[string]any{"v": v, "label": label, "size": size})
	s.api.readLat.Observe(time.Since(start))
}
