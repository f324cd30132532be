package cluster

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/core"
	"afforest/internal/dist"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/serve"
)

// Config tunes a Router. The zero value is reasonable.
type Config struct {
	// Parallelism bounds the link workers of each shard the local
	// harness boots (StartLocal, SpawnShard; 0 = GOMAXPROCS). The router
	// itself does not read it; out-of-process shards take ccshard -p.
	Parallelism int
	// Trace enables distributed tracing: every request becomes a trace
	// whose shard RPCs carry the trace-context frame extension, and
	// GET /debug/cluster serves the merged cluster timeline. nil (the
	// default) keeps tracing off — the wire stays byte-identical to the
	// untraced protocol.
	Trace *obs.WireTrace
	// Provenance arms merge-forest recording on shards booted by the
	// local harness (StartLocal/SpawnShard). The router itself does not
	// read it: GET /explain stitches witnesses from whichever shards
	// record them. Out-of-process shards arm themselves via
	// `ccshard -provenance`.
	Provenance bool
}

// edgeBatch caps edges per opEdges frame when shipping graph rows or a
// streamed batch to a shard; dialTimeout bounds each shard dial.
const (
	edgeBatch   = 4096
	dialTimeout = 5 * time.Second
)

// ErrDegraded is returned for writes while a shard slot is vacant
// (between leave and join): the cluster serves reads from the retained
// snapshot but refuses new edges rather than acknowledging writes some
// member has not seen. POST /edges answers it with 503.
var ErrDegraded error = &serve.StatusError{Code: http.StatusServiceUnavailable,
	Err: errors.New("cluster: degraded (shard slot vacant), writes refused")}

// ErrUnsettled is returned for reads after a write or load failed part
// way: some member may hold connectivity its peers never learned, so
// labels could answer a connected pair as disconnected. Reads answer 503
// until the next write or load, merging or not, repairs the exchange.
var ErrUnsettled error = &serve.StatusError{Code: http.StatusServiceUnavailable,
	Err: errors.New("cluster: unsettled (a write failed part way), reads refused until the next write repairs it")}

// shardConn is one persistent RPC connection with request/response
// framing serialized by a mutex and every byte counted.
type shardConn struct {
	mu   sync.Mutex
	conn net.Conn
	cc   *countedConn
	br   *bufio.Reader
}

// slot is one membership slot of the fixed-width partition: either an
// active shard connection, or — after a leave — the departed member's
// retained π snapshot, served read-only until a replacement joins.
type slot struct {
	addr   string
	conn   *shardConn // nil when vacant
	lo, hi int
	snap   []graph.V // retained owned-range labels while vacant
	msgs   *obs.Counter
	lag    *obs.Gauge

	// unscanned marks a member whose π may have merged since its last
	// scan, so round 1 of the next exchange asks it for its outbox; any
	// other member would answer with nothing. An opEdges reply with
	// merges sets it. A round-1 outbox clears it, and a fresh or
	// restored member starts clear. A failed write is the router's
	// unsettled state instead. Only the router's write lock holder
	// touches it, from at most one goroutine per slot.
	unscanned bool
}

// Router coordinates N shard processes into one connectivity service.
// It loads a graph by running Fig 5 over the row partition (LoadGraph
// ships each shard sampled arcs of its own rows), routes streamed edges
// to both endpoints' owners (AddEdges), drives BSP exchange rounds to a
// global fixed point after every write that merged a component,
// translates labels across shards for point queries, assembles the
// global census by fan-out, and manages membership transitions with π
// snapshot handoff. It implements http.Handler as a serve.Backend behind
// serve's Surface, the same query surface as a single node, and adds
// the membership and /debug/cluster routes.
type Router struct {
	n         int
	part      dist.Partitioning
	numShards int
	slots     []*slot
	api       *serve.Surface

	// mu serializes writes/membership (Lock) against reads (RLock).
	// Exchange runs under the write lock, so reads always observe a
	// converged fixed point.
	mu sync.RWMutex

	// unsettled marks a write or load that failed part way: a member may
	// have applied edges or linked opinions its peers never learned, and
	// round 1 may have acked opinions whose owner never ingested them.
	// Reads answer ErrUnsettled while it is set. The next write or load
	// runs an exchange even when nothing merged, and its round 1 asks
	// every member to resend every ref (outboxResend); that exchange's
	// success clears it. Guarded by mu.
	unsettled bool

	edges    atomic.Int64
	cutEdges atomic.Int64

	wire *obs.WireTrace // nil = tracing off
	reg  *obs.Registry
	anom *obs.AnomalyDetector

	rounds     *obs.Counter
	opinions   *obs.Counter
	exchanges  *obs.Counter
	exchangeNS *obs.Histogram
	activeG    *obs.Gauge
}

// --- trace plumbing ---

// rctx carries one request's trace identity down the call stack; the
// zero value means "untraced" and every helper below short-circuits on
// it.
type rctx struct {
	trace  uint64
	parent uint32
}

// newRoot opens a root span for one request (HTTP or direct API) and
// returns the context child spans hang from. Untraced routers return
// the zero rctx.
func (r *Router) newRoot(name string) rctx {
	if r.wire == nil {
		return rctx{}
	}
	trace := r.wire.NewTrace()
	id := r.wire.Begin(trace, 0, false, name, obs.RouterShard, 0)
	return rctx{trace: trace, parent: id}
}

// endRoot closes a root span opened by newRoot.
func (r *Router) endRoot(rc rctx, err error) {
	if rc.trace == 0 {
		return
	}
	var end obs.WireEnd
	if err != nil {
		end.Err = err.Error()
	}
	r.wire.End(rc.parent, end)
}

// child opens a router-side grouping span (exchange, round) under rc.
func (r *Router) child(rc rctx, name string, round int) rctx {
	if rc.trace == 0 {
		return rctx{}
	}
	id := r.wire.Begin(rc.trace, rc.parent, false, name, obs.RouterShard, round)
	return rctx{trace: rc.trace, parent: id}
}

// call issues one RPC to shard on sc, the router's only path to a
// shard. When rc is traced and op has a span name, the RPC is a client
// span under rc (round is the exchange round, 0 outside one) whose
// trace context rides the request frame, and the span records the
// call's wire bytes, exact because sc's mutex serializes the
// connection. decode (nil for an empty reply) parses the reply and
// returns the pair and merge counts the span records; the reply must
// then be fully consumed. Every failure — transport, an opError reply,
// a mismatched reply op, a reply that fails to decode or check — closes
// the span with the error and feeds the wire-error-burst rule. Shards
// wrap their errors with identity and op ("shard 2: opIngest: ..."), so
// opError unwraps attributably here.
func (r *Router) call(rc rctx, sc *shardConn, shard, round int, op byte, payload []byte,
	decode func(c *cursor) (pairs, merged int64, err error)) error {
	var span uint32
	var tc traceCtx
	if rc.trace != 0 && wireName(op) != "" {
		span = r.wire.Begin(rc.trace, rc.parent, false, wireName(op), shard, round)
		tc = traceCtx{trace: rc.trace, parent: span}
	}
	sc.mu.Lock()
	s0, r0 := sc.cc.sent.Load(), sc.cc.recv.Load()
	err := writeFrameCtx(sc.cc, op, tc, payload)
	var respOp byte
	var resp []byte
	if err == nil {
		respOp, _, resp, err = readFrame(sc.br)
	}
	end := obs.WireEnd{ReqBytes: sc.cc.sent.Load() - s0, RespBytes: sc.cc.recv.Load() - r0}
	sc.mu.Unlock()
	switch {
	case err != nil:
	case respOp == opError:
		err = fmt.Errorf("cluster: %s", resp)
	case respOp != op:
		err = fmt.Errorf("cluster: response op %d for request op %d", respOp, op)
	default:
		c := &cursor{b: resp}
		if decode != nil {
			end.Pairs, end.Merged, err = decode(c)
		}
		if derr := c.done(); derr != nil {
			err = derr
		}
	}
	if err != nil {
		r.anom.ObserveWireError(err)
		end.Pairs, end.Merged, end.Err = 0, 0, err.Error()
	}
	if span != 0 {
		r.wire.End(span, end)
	}
	return err
}

// NewRouter dials the shard addresses, initializes each member with its
// partition coordinates, and returns the serving router. When len(addrs)
// exceeds the vertex count the surplus addresses are ignored (the 1D
// partition cannot give them a range).
func NewRouter(addrs []string, n int, cfg Config) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no shard addresses")
	}
	part := dist.NewPartitioning(n, len(addrs))
	reg := obs.NewRegistry()
	r := &Router{
		n:         n,
		part:      part,
		numShards: part.NumNodes,
		wire:      cfg.Trace,
		reg:       reg,
		anom:      obs.NewAnomalyDetector(reg),
	}
	if r.wire != nil {
		// Anomaly firings snapshot the canonical merged cluster timeline.
		// The builder reads only the wire recorder (its own lock), so a
		// rule firing inside the exchange loop cannot deadlock on router
		// state.
		wire := r.wire
		r.anom.SetSnapshotFunc(func() []byte {
			var buf bytes.Buffer
			obs.WriteClusterTimeline(&buf, obs.BuildClusterTimeline(wire.Spans()), true)
			return buf.Bytes()
		})
	}
	r.rounds = reg.Counter("afforest_cluster_exchange_rounds_total",
		"BSP ghost-label exchange rounds driven to fixed point.")
	r.opinions = reg.Counter("afforest_cluster_opinions_total",
		"(ref, label) opinions shards sent toward the refs' owners.")
	r.exchanges = reg.Counter("afforest_cluster_exchanges_total",
		"Exchange-to-fixed-point invocations (one per write batch that merged, one or two per load).")
	r.exchangeNS = reg.Histogram("afforest_cluster_exchange_ns",
		"Wall time of one exchange-to-fixed-point, ns.", obs.DefaultLatencyBuckets)
	r.activeG = reg.Gauge("afforest_cluster_shards_active", "Shard slots currently connected.")
	reg.Gauge("afforest_cluster_shards", "Shard slots in the partition.").Set(float64(r.numShards))

	for id := 0; id < r.numShards; id++ {
		lo, hi := part.Range(id)
		sl := &slot{
			addr: addrs[id], lo: lo, hi: hi,
			msgs: reg.Counter("afforest_cluster_messages_total",
				"Exchange label messages (pairs) to/from this shard.", obs.L("shard", strconv.Itoa(id))),
			lag: reg.Gauge("afforest_cluster_shard_lag_ns",
				"How far this shard's exchange RPCs trailed the round's slowest member, ns.",
				obs.L("shard", strconv.Itoa(id))),
		}
		conn, err := r.dial(sl.addr, id)
		if err != nil {
			r.closeAll()
			return nil, err
		}
		sl.conn = conn
		r.slots = append(r.slots, sl)
	}
	r.activeG.Set(float64(r.numShards))

	r.api = serve.NewSurface(r, reg, r.anom)
	r.api.Handle("GET /cluster", "cluster", r.handleTopology)
	r.api.Handle("POST /cluster/leave", "cluster", r.handleLeave)
	r.api.Handle("POST /cluster/join", "cluster", r.handleJoin)
	r.api.Handle("GET /debug/cluster", "debug_cluster", r.handleDebugCluster)
	for _, route := range []string{"/component", "/events", "/history", "/debug/provenance"} {
		r.api.Handle(route, "", r.handleSingleNodeOnly)
	}
	return r, nil
}

// dial connects to a shard address and initializes it for slot id.
func (r *Router) dial(addr string, id int) (*shardConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing shard %d at %s: %w", id, addr, err)
	}
	cc := &countedConn{
		rw: conn,
		sentCtr: r.reg.Counter("afforest_cluster_bytes_total",
			"Wire bytes by shard and direction.", obs.L("shard", strconv.Itoa(id)), obs.L("dir", "sent")),
		recvCtr: r.reg.Counter("afforest_cluster_bytes_total",
			"Wire bytes by shard and direction.", obs.L("shard", strconv.Itoa(id)), obs.L("dir", "recv")),
	}
	sc := &shardConn{conn: conn, cc: cc, br: bufio.NewReader(cc)}
	payload := putU64(nil, uint64(r.n))
	payload = putU32(payload, uint32(r.numShards))
	payload = putU32(payload, uint32(id))
	if err := r.call(rctx{}, sc, id, 0, opInit, payload, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: initializing shard %d: %w", id, err)
	}
	return sc, nil
}

// closeAll drops every live connection without shutting the shard
// processes down (constructor failure path).
func (r *Router) closeAll() {
	for _, sl := range r.slots {
		if sl.conn != nil {
			sl.conn.conn.Close()
		}
	}
}

// Close disconnects from all shards. When shutdownShards is true each
// member is sent opShutdown first, ending its serve loop (used by the
// local harness and by ccserve's drain so a ^C tears the whole local
// topology down).
func (r *Router) Close(shutdownShards bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, sl := range r.slots {
		if sl.conn == nil {
			continue
		}
		if shutdownShards {
			r.call(rctx{}, sl.conn, id, 0, opShutdown, nil, nil) // best-effort
		}
		sl.conn.conn.Close()
		sl.conn = nil
	}
	r.activeG.Set(0)
}

// NumVertices returns the partitioned vertex count.
func (r *Router) NumVertices() int { return r.n }

// NumShards returns the partition width (active + vacant slots).
func (r *Router) NumShards() int { return r.numShards }

// EdgesAccepted returns the number of undirected edges accepted.
func (r *Router) EdgesAccepted() int64 { return r.edges.Load() }

// degradedLocked reports whether any slot is vacant. Caller holds mu.
func (r *Router) degradedLocked() bool {
	for _, sl := range r.slots {
		if sl.conn == nil {
			return true
		}
	}
	return false
}

// forEachActive runs fn(slot) concurrently over the active slots and
// returns the first error.
func (r *Router) forEachActive(fn func(id int, sl *slot) error) error {
	errs := make([]error, len(r.slots))
	var wg sync.WaitGroup
	for id, sl := range r.slots {
		if sl.conn == nil {
			continue
		}
		wg.Add(1)
		go func(id int, sl *slot) {
			defer wg.Done()
			errs[id] = fn(id, sl)
		}(id, sl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sendEdges streams edges to one shard in edgeBatch-sized frames and
// returns the shard's merge count. Each frame is its own traced span
// (the batch boundary is what the wire actually carries).
func (r *Router) sendEdges(rc rctx, sl *slot, id int, edges []pair) (int64, error) {
	var merged int64
	for len(edges) > 0 {
		k := min(len(edges), edgeBatch)
		var m int64
		err := r.call(rc, sl.conn, id, 0, opEdges, encodePairs(nil, edges[:k]), func(c *cursor) (int64, int64, error) {
			m = int64(c.u32())
			return int64(k), m, nil
		})
		if m > 0 {
			sl.unscanned = true
		}
		if err != nil {
			return merged, err
		}
		merged += m
		edges = edges[k:]
	}
	return merged, nil
}

// routeEdges splits a streamed edge batch into per-owner lists. A
// stream has no rows to sample, so every edge goes to owner(u), and a
// cut edge additionally goes to owner(v) as a ghost copy (both sides
// must link it, so each owner's forest sees the edge). Each cut edge
// counts once in CutEdges. LoadGraph does not route: a symmetric CSR
// already holds every cut edge in both endpoints' rows.
func (r *Router) routeEdges(edges []graph.Edge) (primary, ghost [][]pair) {
	primary = make([][]pair, r.numShards)
	ghost = make([][]pair, r.numShards)
	var cut int64
	for _, e := range edges {
		ou, ov := r.part.Owner(e.U), r.part.Owner(e.V)
		primary[ou] = append(primary[ou], pair{V: e.U, Label: e.V})
		if ov != ou {
			ghost[ov] = append(ghost[ov], pair{V: e.U, Label: e.V})
			cut++
		}
	}
	if cut > 0 {
		r.cutEdges.Add(cut)
	}
	return primary, ghost
}

// applyEdgesLocked routes and applies a streamed batch, then settles
// the exchange. Caller holds the write lock and has checked degraded.
// Returns the merge count from the primary copies.
func (r *Router) applyEdgesLocked(rc rctx, edges []graph.Edge) (int64, error) {
	primary, ghost := r.routeEdges(edges)
	var merged, ghostMerged atomic.Int64
	err := r.forEachActive(func(id int, sl *slot) error {
		m, err := r.sendEdges(rc, sl, id, primary[id])
		if err != nil {
			return err
		}
		merged.Add(m)
		m, err = r.sendEdges(rc, sl, id, ghost[id])
		ghostMerged.Add(m)
		return err
	})
	if err != nil {
		return 0, err
	}
	if err := r.settleLocked(rc, merged.Load()+ghostMerged.Load()); err != nil {
		return 0, err
	}
	r.edges.Add(int64(len(edges)))
	return merged.Load(), nil
}

// settleLocked restores the global fixed point after a write whose
// opEdges replies summed to merged. A settled router skips the exchange
// when nothing merged on any shard, which changes nothing: every
// shard's π would then hold the component count of its last scan, so
// every outbox would come back empty and the exchange would end after
// one silent round. An unsettled one always runs it: that exchange is
// the repair. Caller holds the write lock with all slots active.
func (r *Router) settleLocked(rc rctx, merged int64) error {
	if merged == 0 && !r.unsettled {
		return nil
	}
	return r.exchangeLocked(rc)
}

// AddEdges accepts a batch of undirected edges, applies them across the
// cluster, reconciles to a fixed point, and returns how many merged two
// components (counted on the primary owner). Refused with ErrDegraded
// while a slot is vacant.
func (r *Router) AddEdges(edges []graph.Edge) (int64, error) {
	for _, e := range edges {
		if int(e.U) >= r.n || int(e.V) >= r.n {
			return 0, fmt.Errorf("cluster: edge {%d,%d} out of range (|V|=%d)", e.U, e.V, r.n)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.degradedLocked() {
		return 0, ErrDegraded
	}
	rc := r.newRoot("edges_request")
	merged, err := r.applyEdgesLocked(rc, edges)
	if err != nil {
		r.unsettled = true
	}
	r.endRoot(rc, err)
	return merged, err
}

// LoadGraph loads g by running the paper's Fig 5 over the 1D row
// partition. This is the cluster bootstrap (`ccserve -cluster` calls it
// before serving). Every cut edge sits in both endpoints' rows of a
// symmetric CSR, so row u ships only to owner(u) and a load needs no
// ghost copies. The steps:
//
//  1. Ship the first NeighborRounds arcs of every row (neighbor
//     sampling) and settle the exchange.
//  2. Read the resolved labels and sample their most frequent value c
//     with a fixed seed (Fig 5 line 10), so wire bytes repeat exactly.
//  3. Ship the remaining arcs of only the rows whose label is not c,
//     and settle again.
//
// Step 3 is Theorem 3 over rows. A row is skipped only when its vertex
// already resolves to c, so an edge between c and an outside vertex
// ships from the outside vertex's row. The argument holds for any c and
// any π that records only true connectivity, so loading into a
// non-empty cluster is exact too.
func (r *Router) LoadGraph(g *graph.CSR) error {
	if g.NumVertices() > r.n {
		return fmt.Errorf("cluster: graph has %d vertices, router partitioned for %d", g.NumVertices(), r.n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.degradedLocked() {
		return ErrDegraded
	}
	rc := r.newRoot("load_graph")
	err := r.loadLocked(rc, g)
	if err != nil {
		r.unsettled = true
	}
	r.endRoot(rc, err)
	return err
}

// loadLocked runs LoadGraph's steps. Caller holds the write lock with
// all slots active.
func (r *Router) loadLocked(rc rctx, g *graph.CSR) error {
	rounds := int64(core.DefaultOptions().NeighborRounds)
	merged, err := r.shipRows(rc, g, func(_ int, lo, hi int64) (int64, int64) {
		return lo, min(hi, lo+rounds)
	})
	if err != nil {
		return err
	}
	if err := r.settleLocked(rc, merged); err != nil {
		return err
	}
	labels, err := r.globalLabelsLocked(rc)
	if err != nil {
		return err
	}
	c := core.SampleFrequentElement(labels[:g.NumVertices()], 1024, 0)
	merged, err = r.shipRows(rc, g, func(u int, lo, hi int64) (int64, int64) {
		if labels[u] == c {
			return hi, hi
		}
		return min(hi, lo+rounds), hi
	})
	if err != nil {
		return err
	}
	if err := r.settleLocked(rc, merged); err != nil {
		return err
	}
	r.edges.Add(g.NumEdges())
	return nil
}

// shipRows sends each active shard arcs of its owned rows of g as
// (u, v) pairs on opEdges, in edgeBatch-sized frames, and returns the
// summed merge count. span maps row u's arc range [lo, hi) to the
// sub-range to ship. Each frame is built just before it goes out, so a
// load holds one frame per shard, not every shipped pair. Each shipped
// cut arc counts once in CutEdges.
func (r *Router) shipRows(rc rctx, g *graph.CSR, span func(u int, lo, hi int64) (int64, int64)) (int64, error) {
	n, offsets, targets := g.NumVertices(), g.Offsets(), g.Targets()
	var merged atomic.Int64
	err := r.forEachActive(func(id int, sl *slot) error {
		batch := make([]pair, 0, edgeBatch)
		var cut int64
		send := func() error {
			m, err := r.sendEdges(rc, sl, id, batch)
			merged.Add(m)
			batch = batch[:0]
			return err
		}
		for u := sl.lo; u < min(sl.hi, n); u++ {
			lo, hi := span(u, offsets[u], offsets[u+1])
			for _, v := range targets[lo:hi] {
				if int(v) < sl.lo || int(v) >= sl.hi {
					cut++
				}
				batch = append(batch, pair{V: graph.V(u), Label: v})
				if len(batch) == edgeBatch {
					if err := send(); err != nil {
						return err
					}
				}
			}
		}
		r.cutEdges.Add(cut)
		return send()
	})
	return merged.Load(), err
}

// exchangeLocked drives BSP rounds until no shard has an opinion left
// to send. Round 1 gathers the outbox of (remote ref, local label)
// opinions of every shard whose π may have merged since its last scan
// (slot.unscanned): the refs whose label moved off their ack since that
// scan, and the refs noted since. Any other shard's outbox is empty, so
// it is not asked. An unsettled router instead asks every shard to
// resend every ref, and the exchange's success settles it. Each round
// then groups the opinions by owner and ingests them there, and owners
// answer only the opinions they label differently. The replies are
// routed back and absorbed, and each absorb returns the shard's
// opinions for the next round: the refs whose label moved off the one
// their owner is known to hold. A shard whose ingest merged nothing and
// that got no reply has no such ref, so its absorb is skipped. Shards
// send their opinions in strictly increasing ref order (checked on
// receipt), so an owner's share of a sender's list is one run: the
// router slices each list at the partition boundaries, and an ingest
// request is the senders' runs in sender order. One round's RPCs fan
// out concurrently across shards with a barrier between phases, so
// each round is one superstep. Every pair on every leg (outbox, ingest,
// reply, absorb, next opinions) counts as a message, and each opinion a
// shard sends counts once in Opinions. The shards keep their acks for
// the next exchange, so nothing ends this one.
// When rc is traced, the exchange gets a grouping span with one child
// span per round; every shard RPC hangs off its round. Each round also
// feeds the cluster anomaly rules: per-shard lag, absorb churn, and —
// on completion — the round-count blowup rule.
// Caller holds the write lock with all slots active.
func (r *Router) exchangeLocked(rc rctx) (err error) {
	start := time.Now()
	exc := r.child(rc, obs.WireExchange, 0)
	round := 0
	defer func() {
		if err == nil {
			r.unsettled = false
		}
		r.exchanges.Inc()
		r.exchangeNS.ObserveDuration(time.Since(start))
		r.endRoot(exc, nil)
		r.anom.ObserveExchange(round)
	}()
	opinions := make([][]pair, r.numShards)
	for {
		round++
		rnd := r.child(exc, obs.WireRound, round)
		rpcNS := make([]int64, r.numShards)
		timed := func(id int, fn func() error) error {
			t0 := time.Now()
			err := fn()
			atomic.AddInt64(&rpcNS[id], time.Since(t0).Nanoseconds())
			return err
		}

		// Round 1 only: gather the outboxes that may hold opinions.
		if round == 1 {
			var payload []byte
			if r.unsettled {
				payload = []byte{outboxResend}
			}
			err := r.forEachActive(func(id int, sl *slot) error {
				if !sl.unscanned && !r.unsettled {
					return nil
				}
				return timed(id, func() error {
					err := r.call(rnd, sl.conn, id, round, opOutbox, payload, func(c *cursor) (int64, int64, error) {
						opinions[id] = c.pairs()
						return int64(len(opinions[id])), 0, checkRefOrder(id, opinions[id])
					})
					if err != nil {
						return err
					}
					sl.unscanned = false
					sl.msgs.Add(int64(len(opinions[id])))
					r.opinions.Add(int64(len(opinions[id])))
					return nil
				})
			})
			if err != nil {
				r.endRoot(rnd, err)
				return err
			}
		}

		// Slice each sender's opinions into per-owner runs:
		// runs[dest][src] holds src's opinions about dest's vertices,
		// and sizes[dest] counts dest's ingest request. The last owner
		// takes the rest of each list, as Partitioning.Owner clamps.
		runs := make([][][]pair, r.numShards)
		sizes := make([]int, r.numShards)
		for dest := range runs {
			runs[dest] = make([][]pair, r.numShards)
		}
		for src, out := range opinions {
			for dest, sl := range r.slots {
				k := len(out)
				if dest < r.numShards-1 {
					k, _ = slices.BinarySearchFunc(out, graph.V(sl.hi), func(p pair, v graph.V) int { return cmp.Compare(p.V, v) })
				}
				runs[dest][src], out = out[:k], out[k:]
				sizes[dest] += k
			}
		}

		// Owners ingest and answer only with news: (request index,
		// label), in increasing index order.
		replies := make([][]pair, r.numShards)
		ingestMerged := make([]int64, r.numShards)
		err := r.forEachActive(func(id int, sl *slot) error {
			if sizes[id] == 0 {
				return nil
			}
			return timed(id, func() error {
				err := r.call(rnd, sl.conn, id, round, opIngest, encodePairs(nil, runs[id]...), func(c *cursor) (int64, int64, error) {
					ingestMerged[id] = int64(c.u32())
					replies[id] = c.pairs()
					for i, rep := range replies[id] {
						if int(rep.V) >= sizes[id] {
							return 0, 0, fmt.Errorf("cluster: shard %d replied to opinion %d of %d", id, rep.V, sizes[id])
						}
						if i > 0 && rep.V <= replies[id][i-1].V {
							return 0, 0, fmt.Errorf("cluster: shard %d replied to opinion %d after opinion %d", id, rep.V, replies[id][i-1].V)
						}
					}
					return int64(sizes[id] + len(replies[id])), ingestMerged[id], nil
				})
				if err != nil {
					return err
				}
				sl.msgs.Add(int64(sizes[id] + len(replies[id])))
				return nil
			})
		})
		if err != nil {
			r.endRoot(rnd, err)
			return err
		}

		// Route each reply back to the shard that sent the opinion: the
		// replies run in request order, so walk the senders' runs with
		// them.
		absorbs := make([][]pair, r.numShards)
		for dest, reps := range replies {
			src, base := 0, 0 // runs[dest][src] holds request indices [base, base+len)
			for _, rep := range reps {
				for int(rep.V) >= base+len(runs[dest][src]) {
					base += len(runs[dest][src])
					src++
				}
				absorbs[src] = append(absorbs[src], pair{V: runs[dest][src][int(rep.V)-base].V, Label: rep.Label})
			}
		}

		// Askers absorb the replies and return their next opinions.
		// Absorb merges are tracked apart from ingest merges — they are
		// the ghost-churn signal.
		var absorbMerged, pending atomic.Int64
		err = r.forEachActive(func(id int, sl *slot) error {
			opinions[id] = nil
			if len(absorbs[id]) == 0 && ingestMerged[id] == 0 {
				return nil
			}
			return timed(id, func() error {
				var merged int64
				err := r.call(rnd, sl.conn, id, round, opAbsorb, encodePairs(nil, absorbs[id]), func(c *cursor) (int64, int64, error) {
					merged = int64(c.u32())
					opinions[id] = c.pairs()
					return int64(len(absorbs[id]) + len(opinions[id])), merged, checkRefOrder(id, opinions[id])
				})
				if err != nil {
					return err
				}
				absorbMerged.Add(merged)
				pending.Add(int64(len(opinions[id])))
				sl.msgs.Add(int64(len(absorbs[id]) + len(opinions[id])))
				r.opinions.Add(int64(len(opinions[id])))
				return nil
			})
		})
		if err != nil {
			r.endRoot(rnd, err)
			return err
		}

		// Lag: how far each member trailed the round's critical path.
		var maxNS int64
		for _, ns := range rpcNS {
			maxNS = max(maxNS, ns)
		}
		for id, sl := range r.slots {
			if sl.conn != nil {
				sl.lag.Set(float64(maxNS - rpcNS[id]))
			}
		}
		r.rounds.Inc()
		r.anom.ObserveRoundLag(round, rpcNS)
		r.anom.ObserveExchangeRound(round, absorbMerged.Load())
		r.endRoot(rnd, nil)
		if pending.Load() == 0 {
			return nil
		}
	}
}

// ownerLabel returns the owner's current label for v, reading from the
// retained snapshot when the owner's slot is vacant. Caller holds at
// least the read lock.
func (r *Router) ownerLabel(rc rctx, v graph.V) (graph.V, error) {
	id := r.part.Owner(v)
	sl := r.slots[id]
	if sl.conn == nil {
		return sl.snap[int(v)-sl.lo], nil
	}
	var l graph.V
	err := r.call(rc, sl.conn, id, 0, opQuery, putU32(nil, uint32(v)), func(c *cursor) (int64, int64, error) {
		l = graph.V(c.u32())
		return 1, 0, checkLabels(id, int(v), []graph.V{l})
	})
	return l, err
}

// Resolve translates v to its globally canonical component label by
// following owner labels across shards until a fixed point: each hop
// asks owner(x) for its label of x, and labels strictly decrease, so
// the walk terminates at the component's minimum id once the exchange
// has converged.
func (r *Router) Resolve(v graph.V) (graph.V, error) {
	if int(v) >= r.n {
		return 0, fmt.Errorf("cluster: vertex %d out of range (|V|=%d)", v, r.n)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.unsettled {
		return 0, ErrUnsettled
	}
	rc := r.newRoot("resolve_request")
	l, err := r.resolveLocked(rc, v)
	r.endRoot(rc, err)
	return l, err
}

func (r *Router) resolveLocked(rc rctx, v graph.V) (graph.V, error) {
	for {
		l, err := r.ownerLabel(rc, v)
		if err != nil {
			return 0, err
		}
		if l == v {
			return v, nil
		}
		v = l
	}
}

// Connected reports whether u and v are in the same component.
func (r *Router) Connected(u, v graph.V) (bool, error) {
	if int(u) >= r.n || int(v) >= r.n {
		return false, fmt.Errorf("cluster: vertex out of range (|V|=%d)", r.n)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.unsettled {
		return false, ErrUnsettled
	}
	rc := r.newRoot("connected_request")
	conn, err := r.connectedLocked(rc, u, v)
	r.endRoot(rc, err)
	return conn, err
}

func (r *Router) connectedLocked(rc rctx, u, v graph.V) (bool, error) {
	lu, err := r.resolveLocked(rc, u)
	if err != nil {
		return false, err
	}
	lv, err := r.resolveLocked(rc, v)
	if err != nil {
		return false, err
	}
	return lu == lv, nil
}

// explainAt asks owner(x) for its local forest's witness of (x, y). A
// shard that records no provenance makes it serve.ErrNoProvenance, the
// single node's answer.
func (r *Router) explainAt(rc rctx, x, y graph.V) (bool, []provenance.Hop, error) {
	id := r.part.Owner(x)
	sl := r.slots[id]
	if sl.conn == nil {
		return false, nil, fmt.Errorf("cluster: owner shard %d of vertex %d is vacant; witness unavailable", id, x)
	}
	var status byte
	var hops []provenance.Hop
	err := r.call(rc, sl.conn, id, 0, opExplain, putU32(putU32(nil, uint32(x)), uint32(y)), func(c *cursor) (int64, int64, error) {
		status, hops = c.hops(id)
		return int64(len(hops)), 0, nil
	})
	if err != nil {
		return false, nil, err
	}
	if status == explainDisabled {
		return false, nil, serve.ErrNoProvenance
	}
	return status == explainFound, hops, nil
}

// Explain stitches a cluster-wide witness for (u, v) out of per-shard
// merge-forest segments. Each side's label chain u → l₁ → … → L (the
// owner-label walk Resolve does, collected once) is expanded step by
// step: the
// owner of xᵢ explains (xᵢ, xᵢ₊₁) from its local forest — it applied
// the merge that produced that label, so its forest connects the pair.
// Concatenating the u-side segments and the reversed v-side segments
// (hop endpoints swapped) yields a contiguous path u ⇝ L ⇝ v whose real
// hops are client-submitted edges and whose ghost hops mark connectivity
// that crossed the exchange protocol, each stamped with the shard that
// recorded it. gap is true when the pair is connected but some segment
// predates provenance (bootstrap load, restore handoff) — the witness
// would have holes, so none is returned.
func (r *Router) Explain(u, v graph.V) (connected bool, hops []provenance.Hop, gap bool, err error) {
	if int(u) >= r.n || int(v) >= r.n {
		return false, nil, false, fmt.Errorf("cluster: vertex out of range (|V|=%d)", r.n)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.unsettled {
		return false, nil, false, ErrUnsettled
	}
	rc := r.newRoot("explain_request")
	connected, hops, gap, err = r.explainLocked(rc, u, v)
	r.endRoot(rc, err)
	return connected, hops, gap, err
}

func (r *Router) explainLocked(rc rctx, u, v graph.V) (bool, []provenance.Hop, bool, error) {
	cu, err := r.chainLocked(rc, u)
	if err != nil {
		return false, nil, false, err
	}
	cv, err := r.chainLocked(rc, v)
	if err != nil {
		return false, nil, false, err
	}
	if cu[len(cu)-1] != cv[len(cv)-1] {
		return false, nil, false, nil
	}
	if u == v {
		return true, []provenance.Hop{}, false, nil
	}
	// Expand one side's label chain into witness segments.
	walk := func(chain []graph.V) ([]provenance.Hop, bool, error) {
		var out []provenance.Hop
		gap := false
		for i := 0; i+1 < len(chain); i++ {
			found, seg, err := r.explainAt(rc, chain[i], chain[i+1])
			if err != nil {
				return nil, false, err
			}
			if !found {
				gap = true
			} else {
				out = append(out, seg...)
			}
		}
		return out, gap, nil
	}
	up, ugap, err := walk(cu)
	if err != nil {
		return true, nil, false, err
	}
	vp, vgap, err := walk(cv)
	if err != nil {
		return true, nil, false, err
	}
	if ugap || vgap {
		return true, nil, true, nil
	}
	hops := up
	for i := len(vp) - 1; i >= 0; i-- {
		h := vp[i]
		h.U, h.V = h.V, h.U
		hops = append(hops, h)
	}
	if hops == nil {
		hops = []provenance.Hop{}
	}
	return true, hops, false, nil
}

// chainLocked returns x's label chain x → l₁ → … → L, the owner-label
// walk Resolve does, ending at the component's canonical label.
func (r *Router) chainLocked(rc rctx, x graph.V) ([]graph.V, error) {
	chain := []graph.V{x}
	for {
		l, err := r.ownerLabel(rc, x)
		if err != nil {
			return nil, err
		}
		if l == x {
			return chain, nil
		}
		chain = append(chain, l)
		x = l
	}
}

// GlobalLabels fans out to every slot for its owned-range labels and
// shortcuts cross-shard label chains to roots — the canonical min-id
// labeling a single-node run would produce.
func (r *Router) GlobalLabels() ([]graph.V, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.unsettled {
		return nil, ErrUnsettled
	}
	rc := r.newRoot("census_request")
	labels, err := r.globalLabelsLocked(rc)
	r.endRoot(rc, err)
	return labels, err
}

func (r *Router) globalLabelsLocked(rc rctx) ([]graph.V, error) {
	labels := make([]graph.V, r.n)
	err := func() error {
		errs := make([]error, len(r.slots))
		var wg sync.WaitGroup
		for id, sl := range r.slots {
			wg.Add(1)
			go func(id int, sl *slot) {
				defer wg.Done()
				if sl.conn == nil {
					copy(labels[sl.lo:sl.hi], sl.snap)
					return
				}
				got, err := r.ownedLabels(rc, id, sl)
				copy(labels[sl.lo:sl.hi], got)
				errs[id] = err
			}(id, sl)
		}
		wg.Wait()
		return errors.Join(errs...)
	}()
	if err != nil {
		return nil, err
	}
	// Shortcut across shards: a label is itself labeled at its owner.
	// Every label is at most its vertex, so in increasing vertex order
	// labels[l] is already the end of l's chain when u reads it.
	for u, l := range labels {
		labels[u] = labels[l]
	}
	return labels, nil
}

// ownedLabels reads slot id's owned-range labels with opLabels.
func (r *Router) ownedLabels(rc rctx, id int, sl *slot) ([]graph.V, error) {
	var labels []graph.V
	payload := putU32(putU32(nil, uint32(sl.lo)), uint32(sl.hi))
	err := r.call(rc, sl.conn, id, 0, opLabels, payload, func(c *cursor) (int64, int64, error) {
		labels = c.labels(sl.hi - sl.lo)
		return int64(len(labels)), 0, checkLabels(id, sl.lo, labels)
	})
	return labels, err
}

// checkRefOrder rejects an opOutbox or opAbsorb answer from shard id
// unless its refs strictly increase, the order exchangeLocked's
// per-owner runs rely on.
func checkRefOrder(id int, opinions []pair) error {
	for i := 1; i < len(opinions); i++ {
		if opinions[i].V <= opinions[i-1].V {
			return fmt.Errorf("cluster: shard %d sent ref %d after ref %d", id, opinions[i].V, opinions[i-1].V)
		}
	}
	return nil
}

// checkLabels rejects a shard's owned-range labels (an opLabels
// answer from shard id, starting at vertex lo) unless every label is at
// most its vertex — the π(x) ≤ x invariant the label-chain
// walks rely on to end.
func checkLabels(id, lo int, labels []graph.V) error {
	for i, l := range labels {
		if int(l) > lo+i {
			return fmt.Errorf("cluster: shard %d labels vertex %d with %d, violating π(x) ≤ x", id, lo+i, l)
		}
	}
	return nil
}

// ComponentSizes folds GlobalLabels into the per-root size table the
// census ranks (canonical labels are component minima, so each root
// counts its members), with the accepted-edge count read under the same
// read lock: O(n) with no map and no sort.
func (r *Router) ComponentSizes(fn func(sizes []int32, edges int64)) error {
	r.mu.RLock()
	if r.unsettled {
		r.mu.RUnlock()
		return ErrUnsettled
	}
	rc := r.newRoot("census_request")
	labels, err := r.globalLabelsLocked(rc)
	r.endRoot(rc, err)
	edges := r.edges.Load()
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	sizes := make([]int32, len(labels))
	for _, l := range labels {
		sizes[l]++
	}
	fn(sizes, edges)
	return nil
}

// Leave removes shard id from the cluster: its owned-range labels, the
// π snapshot, are read with opLabels and retained at the router
// (handoff custody), the member is sent opShutdown, and the slot goes
// vacant. Reads keep answering from the
// snapshot; writes are refused until a replacement joins.
func (r *Router) Leave(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= r.numShards {
		return fmt.Errorf("cluster: no shard slot %d", id)
	}
	sl := r.slots[id]
	if sl.conn == nil {
		return fmt.Errorf("cluster: shard slot %d already vacant", id)
	}
	snap, err := r.ownedLabels(rctx{}, id, sl)
	if err != nil {
		return fmt.Errorf("cluster: snapshot handoff from shard %d: %w", id, err)
	}
	r.call(rctx{}, sl.conn, id, 0, opShutdown, nil, nil) // best-effort: member may already be dying
	sl.conn.conn.Close()
	sl.conn = nil
	sl.snap = snap
	r.activeG.Set(r.activeCount())
	return nil
}

// Join fills vacant slot id with a fresh member at addr: the retained π
// snapshot is restored into it and the slot reactivates. It runs no
// exchange, because no member has anything to send: the restored
// member's last scan is its restored component count, and any other
// member that may have merged since its own last scan stays marked
// unscanned for the next exchange (DESIGN.md §13).
func (r *Router) Join(id int, addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= r.numShards {
		return fmt.Errorf("cluster: no shard slot %d", id)
	}
	sl := r.slots[id]
	if sl.conn != nil {
		return fmt.Errorf("cluster: shard slot %d is active; leave it first", id)
	}
	if sl.snap == nil {
		return fmt.Errorf("cluster: no retained snapshot for slot %d", id)
	}
	conn, err := r.dial(addr, id)
	if err != nil {
		return err
	}
	payload := encodeLabels(putU32(putU32(nil, uint32(sl.lo)), uint32(sl.hi)), sl.snap)
	if err := r.call(rctx{}, conn, id, 0, opRestore, payload, nil); err != nil {
		conn.conn.Close()
		return fmt.Errorf("cluster: restoring snapshot into shard %d: %w", id, err)
	}
	sl.conn = conn
	sl.addr = addr
	sl.snap = nil
	sl.unscanned = false
	r.activeG.Set(r.activeCount())
	return nil
}

func (r *Router) activeCount() float64 {
	active := 0
	for _, sl := range r.slots {
		if sl.conn != nil {
			active++
		}
	}
	return float64(active)
}

// RouterStats is the router's cumulative wire tally. Opinions counts
// the (vertex, label) pairs shards sent toward the vertices' owners:
// the round-1 outboxes and the opinions each absorb returned. Messages
// counts every pair moved during exchanges: each opinion twice (from
// its shard, into its owner's ingest) and each owner reply twice (out
// of the ingest, into the asker's absorb). Owners reply only with a
// label that differs from the opinion, so Messages is not a fixed
// multiple of Opinions. CutEdges counts the cut pairs (endpoints with
// different owners) the router shipped: a streamed cut edge once, and
// a loaded cut arc once. A load ships only sampled and unskipped arcs,
// so it counts far fewer than the graph's cut edges.
type RouterStats struct {
	Shards    int   `json:"shards"`
	Active    int   `json:"active"`
	Rounds    int64 `json:"rounds"`
	Exchanges int64 `json:"exchanges"`
	CutEdges  int64 `json:"cut_edges"`
	Opinions  int64 `json:"opinions"`
	Messages  int64 `json:"messages"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
}

// Stats returns the current wire tallies.
func (r *Router) Stats() RouterStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := RouterStats{
		Shards:    r.numShards,
		Active:    int(r.activeCount()),
		Rounds:    r.rounds.Value(),
		Exchanges: r.exchanges.Value(),
		CutEdges:  r.cutEdges.Load(),
		Opinions:  r.opinions.Value(),
	}
	for _, sl := range r.slots {
		st.Messages += sl.msgs.Value()
		if sl.conn != nil {
			st.BytesSent += sl.conn.cc.sent.Load()
			st.BytesRecv += sl.conn.cc.recv.Load()
		}
	}
	return st
}

// --- serve.Backend ---

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.api.ServeHTTP(w, req)
}

// SubmitEdges is AddEdges with the serve.Ack the HTTP surface answers.
func (r *Router) SubmitEdges(edges []graph.Edge) (serve.Ack, error) {
	merged, err := r.AddEdges(edges)
	return serve.Ack{Accepted: len(edges), Merged: merged}, err
}

// StatsSections adds the wire tallies to /stats as "cluster".
func (r *Router) StatsSections(body map[string]any) {
	body["cluster"] = r.Stats()
}

// Health adds the partition width to /healthz; the status is
// "degraded" while a slot is vacant or the router is unsettled.
func (r *Router) Health(body map[string]any) string {
	body["shards"] = r.numShards
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.degradedLocked() || r.unsettled {
		return "degraded"
	}
	return "ok"
}

// --- router-only routes ---

// handleSingleNodeOnly refuses the routes only a single node serves:
// per-vertex sizes, the merge-event stream and the provenance forest
// have no cluster-wide counterpart, and a partial answer would be wrong.
func (r *Router) handleSingleNodeOnly(w http.ResponseWriter, req *http.Request) {
	r.api.Error(w, http.StatusNotImplemented,
		req.URL.Path+" is served by a single-node ccserve only; the cluster router does not answer it")
}

func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	type slotInfo struct {
		ID     int    `json:"id"`
		Addr   string `json:"addr"`
		Lo     int    `json:"lo"`
		Hi     int    `json:"hi"`
		Active bool   `json:"active"`
	}
	slots := make([]slotInfo, len(r.slots))
	for id, sl := range r.slots {
		slots[id] = slotInfo{ID: id, Addr: sl.addr, Lo: sl.lo, Hi: sl.hi, Active: sl.conn != nil}
	}
	degraded := r.degradedLocked()
	r.mu.RUnlock()
	serve.WriteJSON(w, map[string]any{"shards": slots, "degraded": degraded})
}

// shardDump is one member's opFlight payload: its flight-recorder JSONL
// dump and the JSON array of retained Afforest phase spans. The wire
// spans that also ride opFlight are folded straight into the router's
// merged recorder rather than surfaced here.
type shardDump struct {
	ID     int
	Flight []byte
	Phases []byte
}

// pullFlight fetches every active shard's opFlight dump and merges the
// shard-side wire spans into the router's recorder — after a pull, the
// recorder holds the whole cluster's spans and BuildClusterTimeline can
// attribute server-side time per shard per round. The pull itself is
// deliberately untraced: its payload sizes depend on wall-clock span
// content, which would poison the canonical (replay-deterministic)
// timeline with nondeterministic byte counts.
func (r *Router) pullFlight() ([]shardDump, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dumps := make([]shardDump, 0, len(r.slots))
	var mu sync.Mutex
	err := r.forEachActive(func(id int, sl *slot) error {
		var flight, phases, spansRaw []byte
		err := r.call(rctx{}, sl.conn, id, 0, opFlight, nil, func(c *cursor) (int64, int64, error) {
			flight, phases, spansRaw = c.block(), c.block(), c.block()
			return 0, 0, nil
		})
		if err != nil {
			return err
		}
		var spans []obs.WireSpan
		if err := json.Unmarshal(spansRaw, &spans); err != nil {
			return fmt.Errorf("cluster: shard %d flight spans: %w", id, err)
		}
		if r.wire != nil {
			for _, s := range spans {
				r.wire.Add(s)
			}
		}
		mu.Lock()
		dumps = append(dumps, shardDump{
			ID:     id,
			Flight: append([]byte(nil), flight...),
			Phases: append([]byte(nil), phases...),
		})
		mu.Unlock()
		return nil
	})
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].ID < dumps[j].ID })
	return dumps, err
}

// ClusterTimeline pulls every shard's spans and returns the merged
// lanes — the programmatic face of /debug/cluster (ccbench and the
// tests use it directly).
func (r *Router) ClusterTimeline() ([]obs.ClusterLaneRow, error) {
	if r.wire == nil {
		return nil, errors.New("cluster: tracing disabled (construct the router with Config.Trace)")
	}
	if _, err := r.pullFlight(); err != nil {
		return nil, err
	}
	return obs.BuildClusterTimeline(r.wire.Spans()), nil
}

// handleDebugCluster serves the merged cluster observability surface:
//
//	GET /debug/cluster                     merged timeline (?canonical=1 for the replay-stable mode)
//	GET /debug/cluster?view=spans          merged wire spans as JSONL
//	GET /debug/cluster?view=flight&shard=N one member's flight-recorder dump
//	GET /debug/cluster?view=phases&shard=N one member's Afforest phase spans (JSON)
func (r *Router) handleDebugCluster(w http.ResponseWriter, req *http.Request) {
	if r.wire == nil {
		r.api.Error(w, http.StatusNotFound, "tracing disabled: construct the router with Config.Trace")
		return
	}
	dumps, err := r.pullFlight()
	if err != nil {
		r.api.Error(w, http.StatusBadGateway, err.Error())
		return
	}
	canonical := req.URL.Query().Get("canonical") == "1"
	switch view := req.URL.Query().Get("view"); view {
	case "", "timeline":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteClusterTimeline(w, obs.BuildClusterTimeline(r.wire.Spans()), canonical)
	case "spans":
		w.Header().Set("Content-Type", "application/x-ndjson")
		r.wire.WriteJSONL(w, canonical)
	case "flight", "phases":
		id, err := r.shardParam(req)
		if err != nil {
			r.api.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		for _, d := range dumps {
			if d.ID != id {
				continue
			}
			if view == "flight" {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write(d.Flight)
			} else {
				w.Header().Set("Content-Type", "application/json")
				w.Write(d.Phases)
			}
			return
		}
		r.api.Error(w, http.StatusNotFound, fmt.Sprintf("shard %d inactive or unknown", id))
	default:
		r.api.Error(w, http.StatusBadRequest, fmt.Sprintf("unknown view %q", view))
	}
}

func (r *Router) shardParam(req *http.Request) (int, error) {
	raw := req.URL.Query().Get("shard")
	if raw == "" {
		return 0, errors.New(`missing query parameter "shard"`)
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad shard %q: %v", raw, err)
	}
	return id, nil
}

func (r *Router) handleLeave(w http.ResponseWriter, req *http.Request) {
	id, err := r.shardParam(req)
	if err != nil {
		r.api.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := r.Leave(id); err != nil {
		r.api.Error(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, map[string]any{"left": id})
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	id, err := r.shardParam(req)
	if err != nil {
		r.api.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	addr := req.URL.Query().Get("addr")
	if addr == "" {
		r.api.Error(w, http.StatusBadRequest, `missing query parameter "addr"`)
		return
	}
	if err := r.Join(id, addr); err != nil {
		r.api.Error(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, map[string]any{"joined": id, "addr": addr})
}
