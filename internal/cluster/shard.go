package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"

	"afforest/internal/core"
	"afforest/internal/dist"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
)

// Shard is one cluster member: it owns a contiguous vertex range of the
// 1D partition and runs Afforest's lock-free link/compress over every
// edge the router sends it, via core.Incremental (the same engine the
// single-node serve layer uses). Non-owned vertices that the shard has
// an opinion about — ghost endpoints of cut edges, plus every remote
// label that ever entered its π through the exchange — are tracked in
// refs, a dense bitset over [0, n); each BSP exchange round pushes (ref,
// local label) opinions to the ref's owner and absorbs the owner's
// canonical label back.
//
// Invariant: every remote vertex id appearing anywhere in the shard's π
// is in refs. Remote ids enter π only through applyEdges endpoints,
// ingest/absorb labels, or restored snapshot labels, and each of those
// paths records the id, so the exchange never strands an opinion the
// rest of the cluster cannot see.
type Shard struct {
	mu sync.Mutex

	init        bool
	n           int
	id          int
	numShards   int
	lo, hi      int
	part        dist.Partitioning
	inc         *core.Incremental
	refs        []uint64 // bitset over [0, n); owned ids are never set
	numRefs     int      // population count of refs
	edges       int64    // arcs applied here (includes ghost copies)
	parallelism int

	// Observability. wire records server-side spans for requests that
	// arrive with a trace-context extension (untraced requests record
	// nothing); phases retains the Afforest phase trees of traced edge
	// batches; flight is optional (SetFlight) and feeds the per-worker
	// flight recorder shared with /debug/flight. All three ride out over
	// opFlight.
	wire   *obs.WireTrace
	phases *obs.RingSink
	flight *obs.FlightRecorder

	// Provenance. When enabled (SetProvenance before Serve), initialize
	// builds a merge-forest over the full vertex space. Edges applied via
	// opEdges record as real input edges (including ghost copies of cut
	// edges — those ARE client-submitted edges); exchange-protocol label
	// merges (ingest/absorb) record through the ghost view, so
	// cross-shard witness hops are honestly tagged as connectivity
	// learned from a peer, not as input edges.
	provenance bool
	prov       *provenance.Forest
	ghost      *provenance.GhostView
}

// NewShard returns an uninitialized shard; the router's opInit
// determines its identity and vertex space. parallelism bounds the
// workers used for batch edge application (0 = GOMAXPROCS).
func NewShard(parallelism int) *Shard {
	return &Shard{
		id:          -1, // unknown until opInit
		wire:        obs.NewWireTrace(0),
		phases:      obs.NewRingSink(256),
		parallelism: parallelism,
	}
}

// SetFlight attaches a flight recorder capturing the per-worker event
// rings of every edge batch the shard applies (nil detaches). Set it
// before Serve; cmd/ccshard wires it when -debug-addr is given.
func (sh *Shard) SetFlight(f *obs.FlightRecorder) {
	sh.mu.Lock()
	sh.flight = f
	sh.mu.Unlock()
}

// SetProvenance arms merge-forest recording; takes effect at the next
// opInit (the forest is sized by the partition's vertex count). Call
// before Serve; cmd/ccshard wires it from -provenance.
func (sh *Shard) SetProvenance(on bool) {
	sh.mu.Lock()
	sh.provenance = on
	sh.mu.Unlock()
}

// Provenance returns the shard's merge-forest (nil when disabled or not
// yet initialized).
func (sh *Shard) Provenance() *provenance.Forest {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.prov
}

// Flight returns the attached flight recorder (nil when unset).
func (sh *Shard) Flight() *obs.FlightRecorder {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flight
}

// shardID returns the shard's identity (-1 before opInit) for error
// attribution and span labeling.
func (sh *Shard) shardID() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.id
}

var errShutdown = errors.New("cluster: shard shutdown requested")

// Serve accepts connections on ln and answers shard RPCs until an
// opShutdown arrives or the listener is closed. Multiple concurrent
// connections are allowed (shard state has its own lock); the router
// uses one.
func (sh *Shard) Serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	shutdown := make(chan struct{})
	var once sync.Once
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-shutdown:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := sh.serveConn(conn); errors.Is(err, errShutdown) {
				once.Do(func() { close(shutdown); ln.Close() })
			}
		}()
	}
}

// serveConn answers frames on one connection until EOF or shutdown.
// Shard-side errors go back wrapped with the shard's identity and the
// op that failed ("shard 2: opIngest: ...") so router-side logs and
// HTTP errors are attributable without guessing.
func (sh *Shard) serveConn(conn net.Conn) error {
	for {
		op, tc, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		sp := sh.beginSrv(tc, op, len(payload))
		respOp, resp, err := sh.handle(op, payload, sp)
		if err != nil {
			err = fmt.Errorf("shard %d: %s: %w", sh.shardID(), opName(op), err)
			respOp, resp = errorFrame(err)
		}
		werr := writeFrame(conn, respOp, resp)
		sp.finish(len(payload), len(resp), err)
		if werr != nil {
			return werr
		}
		if op == opShutdown && err == nil {
			return errShutdown
		}
	}
}

// srvSpan tracks one traced request's server-side spans: an op span
// parented (remotely) to the router's client span, with decode → work →
// encode stage children. The nil receiver is the untraced fast path —
// every method is a no-op, so handle() needs no branching.
type srvSpan struct {
	w     *obs.WireTrace
	trace uint64
	shard int
	opID  uint32
	cur   uint32 // open stage span
}

// beginSrv opens the server span chain when the request carries an
// active trace context and the op is a traced one.
func (sh *Shard) beginSrv(tc traceCtx, op byte, reqBytes int) *srvSpan {
	if !tc.active() {
		return nil
	}
	name := wireName(op)
	if name == "" {
		return nil
	}
	s := &srvSpan{w: sh.wire, trace: tc.trace, shard: sh.shardID()}
	s.opID = s.w.Begin(tc.trace, tc.parent, true, name, s.shard, 0)
	s.cur = s.w.Begin(tc.trace, s.opID, false, obs.WireDecode, s.shard, 0)
	_ = reqBytes // recorded at finish, alongside the response size
	return s
}

// decoded closes the decode stage and opens the work stage; handle()
// calls it once the cursor has fully parsed the payload.
func (s *srvSpan) decoded() {
	if s == nil {
		return
	}
	s.w.End(s.cur, obs.WireEnd{})
	s.cur = s.w.Begin(s.trace, s.opID, false, obs.WireWork, s.shard, 0)
}

// worked closes the work stage with its merge count and opens the
// encode stage (which finish() closes after the response is written).
func (s *srvSpan) worked(merged int64) {
	if s == nil {
		return
	}
	s.w.End(s.cur, obs.WireEnd{Merged: merged})
	s.cur = s.w.Begin(s.trace, s.opID, false, obs.WireEncode, s.shard, 0)
}

// finish closes whatever stage is open plus the op span itself.
func (s *srvSpan) finish(reqBytes, respBytes int, err error) {
	if s == nil {
		return
	}
	s.w.End(s.cur, obs.WireEnd{})
	end := obs.WireEnd{ReqBytes: int64(reqBytes), RespBytes: int64(respBytes)}
	if err != nil {
		end.Err = err.Error()
	}
	s.w.End(s.opID, end)
}

// tracer returns the tracer core work for one request should run
// under: its spans go to the shard's retained phase ring when the
// request is traced and to the flight recorder when one is attached.
// With neither it returns nil — the zero-cost path core expects.
func (sh *Shard) tracer(s *srvSpan) *obs.Tracer {
	sh.mu.Lock()
	fl := sh.flight
	sh.mu.Unlock()
	var sinks []obs.Sink
	if s != nil {
		sinks = append(sinks, sh.phases)
	}
	if fl != nil {
		sinks = append(sinks, fl)
	}
	if len(sinks) == 0 {
		return nil
	}
	return obs.NewTracer(sinks...)
}

// handle dispatches one RPC. It returns the response op and payload, or
// an error to be sent as opError. sp (nil when untraced) marks the
// decode → work → encode stage boundaries as each case crosses them.
func (sh *Shard) handle(op byte, payload []byte, sp *srvSpan) (byte, []byte, error) {
	c := &cursor{b: payload}
	switch op {
	case opPing, opShutdown:
		return op, nil, c.done()

	case opInit:
		n := c.u64()
		numShards := c.u32()
		id := c.u32()
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		return op, nil, sh.initialize(int(n), int(numShards), int(id))

	case opEdges:
		pairs := c.pairs()
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		merged, err := sh.applyEdges(pairs, sh.tracer(sp))
		if err != nil {
			return 0, nil, err
		}
		sp.worked(merged)
		return op, putU32(nil, uint32(merged)), nil

	case opOutbox:
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		out, err := sh.outbox()
		if err != nil {
			return 0, nil, err
		}
		sp.worked(0)
		return op, encodePairs(nil, out), nil

	case opIngest:
		pairs := c.pairs()
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		merged, replies, err := sh.ingest(pairs)
		if err != nil {
			return 0, nil, err
		}
		sp.worked(merged)
		return op, encodePairs(putU32(nil, uint32(merged)), replies), nil

	case opAbsorb:
		pairs := c.pairs()
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		merged, err := sh.absorb(pairs)
		if err != nil {
			return 0, nil, err
		}
		sp.worked(merged)
		return op, putU32(nil, uint32(merged)), nil

	case opQuery:
		v := graph.V(c.u32())
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		label, err := sh.query(v)
		if err != nil {
			return 0, nil, err
		}
		sp.worked(0)
		return op, putU32(nil, uint32(label)), nil

	case opLabels:
		lo, hi := int(c.u32()), int(c.u32())
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		labels, err := sh.labelRange(lo, hi)
		if err != nil {
			return 0, nil, err
		}
		sp.worked(0)
		return op, encodeLabels(nil, labels), nil

	case opFlight:
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		sp.decoded()
		b, err := sh.flightDump()
		if err != nil {
			return 0, nil, err
		}
		sp.worked(0)
		return op, b, nil

	case opSnapshot:
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		lo, hi, edges, labels, err := sh.snapshot()
		if err != nil {
			return 0, nil, err
		}
		b := putU32(nil, uint32(lo))
		b = putU32(b, uint32(hi))
		b = putU64(b, uint64(edges))
		return op, encodeLabels(b, labels), nil

	case opExplain:
		u := graph.V(c.u32())
		v := graph.V(c.u32())
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		found, hops, err := sh.explain(u, v)
		if err != nil {
			return 0, nil, err
		}
		return op, encodeHops(nil, found, hops), nil

	case opRestore:
		lo, hi := int(c.u32()), int(c.u32())
		edges := int64(c.u64())
		labels := c.labels(hi - lo)
		if err := c.done(); err != nil {
			return 0, nil, err
		}
		return op, nil, sh.restore(lo, hi, edges, labels)

	default:
		return 0, nil, fmt.Errorf("cluster: unknown op %d", op)
	}
}

// initialize (re)creates the shard's state. Re-initialization is legal:
// a replacement shard process is initialized and then restored from the
// departed member's snapshot.
func (sh *Shard) initialize(n, numShards, id int) error {
	if n < 0 || numShards < 1 || id < 0 || id >= numShards {
		return fmt.Errorf("cluster: bad init n=%d shards=%d id=%d", n, numShards, id)
	}
	part := dist.NewPartitioning(n, numShards)
	if part.NumNodes != numShards {
		return fmt.Errorf("cluster: %d shards for %d vertices (partition supports %d)",
			numShards, n, part.NumNodes)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.init = true
	sh.n = n
	sh.id = id
	sh.numShards = numShards
	sh.part = part
	sh.lo, sh.hi = part.Range(id)
	sh.inc = core.NewIncremental(n)
	sh.resetRefs()
	sh.edges = 0
	if sh.provenance {
		sh.prov = provenance.NewForest(n)
		sh.prov.SetShard(id)
		sh.ghost = sh.prov.GhostRecorder()
	} else {
		sh.prov, sh.ghost = nil, nil
	}
	return nil
}

func (sh *Shard) requireInit() error {
	if !sh.init {
		return errors.New("cluster: shard not initialized")
	}
	return nil
}

func (sh *Shard) owned(v graph.V) bool { return int(v) >= sh.lo && int(v) < sh.hi }

// resetRefs empties the ref set, sized for the current n. Caller holds
// mu.
func (sh *Shard) resetRefs() {
	sh.refs = make([]uint64, (sh.n+63)/64)
	sh.numRefs = 0
}

// noteRemote records a remote vertex id as a ref. v must be < n: an id
// past the bitset panics, and serveConn does not recover, so it would
// take the whole shard process down. Every caller range-checks wire
// input first. Caller holds mu.
func (sh *Shard) noteRemote(v graph.V) {
	if sh.owned(v) {
		return
	}
	w, bit := v/64, uint64(1)<<(v%64)
	if sh.refs[w]&bit == 0 {
		sh.refs[w] |= bit
		sh.numRefs++
	}
}

// applyEdges links a batch of edges into the local π. Ghost endpoints
// (and nothing else here — labels produced by the links are existing π
// entries) become refs. The link pass itself runs in parallel on the
// worker pool: Theorem 1 makes the interleaving irrelevant. With
// provenance on, ApplyBatch names the merging edges and the forest
// records them in edge order.
func (sh *Shard) applyEdges(pairs []pair, tr *obs.Tracer) (int64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return 0, err
	}
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		if int(p.V) >= sh.n || int(p.Label) >= sh.n {
			return 0, fmt.Errorf("cluster: edge {%d,%d} out of range (|V|=%d)", p.V, p.Label, sh.n)
		}
		sh.noteRemote(p.V)
		sh.noteRemote(p.Label)
		edges[i] = graph.Edge{U: p.V, V: p.Label}
	}
	sh.edges += int64(len(edges))
	if sh.prov == nil {
		return sh.inc.AddEdges(edges, sh.parallelism, tr), nil
	}
	var span obs.SpanID
	if tr != nil {
		span = tr.BeginPhase(obs.PhaseEdgeBatch)
	}
	merges := sh.inc.ApplyBatch(edges, sh.parallelism)
	sh.prov.RecordMerges(edges, merges, 0)
	merged := int64(len(merges))
	if tr != nil {
		tr.EndPhase(span, obs.PhaseStats{Edges: int64(len(edges)), Links: int64(len(edges)), Merges: merged})
	}
	return merged, nil
}

// flightDump serializes the shard's observability state for opFlight as
// three length-prefixed blocks: the flight recorder's JSONL dump (empty
// when no recorder is attached), the retained Afforest phase spans of
// traced edge batches (JSON array), and the drained wire spans (JSON
// array — draining means each span reaches the router's merged view
// exactly once).
func (sh *Shard) flightDump() ([]byte, error) {
	sh.mu.Lock()
	fl := sh.flight
	sh.mu.Unlock()
	var flight []byte
	if fl != nil {
		flight = fl.Snapshot(obs.DumpOptions{})
	}
	phases, err := json.Marshal(sh.phases.Spans())
	if err != nil {
		return nil, err
	}
	spans, err := json.Marshal(sh.wire.Drain())
	if err != nil {
		return nil, err
	}
	b := putU32(nil, uint32(len(flight)))
	b = append(b, flight...)
	b = putU32(b, uint32(len(phases)))
	b = append(b, phases...)
	b = putU32(b, uint32(len(spans)))
	b = append(b, spans...)
	return b, nil
}

// outbox returns the shard's current opinion (ref, find(ref)) for every
// tracked remote vertex. Walking the bitset word by word yields the
// pairs sorted by vertex id, so the wire traffic is deterministic for a
// given state. Labels that are themselves new remote vertices join refs
// only after the walk — they go out from the next round on — which is
// how label chains across three or more shards get resolved.
func (sh *Shard) outbox() ([]pair, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return nil, err
	}
	out := make([]pair, 0, sh.numRefs)
	for w, word := range sh.refs {
		for word != 0 {
			r := graph.V(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			out = append(out, pair{V: r, Label: sh.inc.Find(r)})
		}
	}
	for _, p := range out {
		sh.noteRemote(p.Label)
	}
	return out, nil
}

// ingest merges remote opinions about owned vertices and replies with
// this shard's (canonical-so-far) label for each, in request order.
func (sh *Shard) ingest(pairs []pair) (int64, []pair, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return 0, nil, err
	}
	var merged int64
	replies := make([]pair, len(pairs))
	for i, p := range pairs {
		if !sh.owned(p.V) {
			return 0, nil, fmt.Errorf("cluster: ingest for %d, not owned by shard %d", p.V, sh.id)
		}
		if int(p.Label) >= sh.n {
			return 0, nil, fmt.Errorf("cluster: ingest label %d out of range", p.Label)
		}
		sh.noteRemote(p.Label)
		merged += sh.linkLabel(p)
		replies[i] = pair{V: p.V, Label: sh.inc.Find(p.V)}
	}
	return merged, replies, nil
}

// absorb merges owners' canonical labels for this shard's refs.
func (sh *Shard) absorb(pairs []pair) (int64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return 0, err
	}
	var merged int64
	for _, p := range pairs {
		if int(p.V) >= sh.n || int(p.Label) >= sh.n {
			return 0, fmt.Errorf("cluster: absorb pair {%d,%d} out of range", p.V, p.Label)
		}
		sh.noteRemote(p.V)
		sh.noteRemote(p.Label)
		merged += sh.linkLabel(p)
	}
	return merged, nil
}

// linkLabel links one exchange-protocol pair (vertex, label) into π
// and returns 1 if that merged two trees. The pair is connectivity
// learned from a peer, not a client edge, so the forest records it
// through the ghost view and witness hops through it say so. Caller
// holds mu.
func (sh *Shard) linkLabel(p pair) int64 {
	if !sh.inc.AddEdge(p.V, p.Label) {
		return 0
	}
	if sh.ghost != nil {
		sh.ghost.OnMerge(p.V, p.Label, 0)
	}
	return 1
}

// explain answers opExplain: the local forest's witness path for (u,v).
func (sh *Shard) explain(u, v graph.V) (bool, []provenance.Hop, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return false, nil, err
	}
	if int(u) >= sh.n || int(v) >= sh.n {
		return false, nil, fmt.Errorf("cluster: explain pair {%d,%d} out of range (|V|=%d)", u, v, sh.n)
	}
	if sh.prov == nil {
		return false, nil, errors.New("cluster: provenance is disabled on this shard")
	}
	hops, ok := sh.prov.Explain(u, v)
	return ok, hops, nil
}

// query returns find(v). The router asks the owner, so v is usually
// owned, but any vertex the shard knows about answers consistently.
func (sh *Shard) query(v graph.V) (graph.V, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return 0, err
	}
	if int(v) >= sh.n {
		return 0, fmt.Errorf("cluster: query vertex %d out of range (|V|=%d)", v, sh.n)
	}
	return sh.inc.Find(v), nil
}

// labelRange returns find(v) for every v in [lo, hi). It compresses π
// first (Fig 5's compress step): shards link without compressing, so a
// load leaves deep trees, and after the compress each find is one hop.
func (sh *Shard) labelRange(lo, hi int) ([]graph.V, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > sh.n {
		return nil, fmt.Errorf("cluster: label range [%d,%d) out of bounds", lo, hi)
	}
	sh.inc.Compress(sh.parallelism)
	out := make([]graph.V, hi-lo)
	for v := lo; v < hi; v++ {
		out[v-lo] = sh.inc.Find(graph.V(v))
	}
	return out, nil
}

// snapshot returns the owned range's resolved labels plus the applied
// arc count — the π handoff a departing member leaves with the router.
func (sh *Shard) snapshot() (lo, hi int, edges int64, labels []graph.V, err error) {
	sh.mu.Lock()
	lo, hi, edges = sh.lo, sh.hi, sh.edges
	sh.mu.Unlock()
	labels, err = sh.labelRange(lo, hi)
	return lo, hi, edges, labels, err
}

// restore installs a snapshot handed off from a departed member. The
// shard must have been initialized with the same partition; refs are
// rebuilt from the remote labels in the snapshot (ghost adjacency that
// no longer shows up in labels is already merged into them, so nothing
// is lost by not persisting the ghost set itself).
func (sh *Shard) restore(lo, hi int, edges int64, labels []graph.V) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.requireInit(); err != nil {
		return err
	}
	if lo != sh.lo || hi != sh.hi {
		return fmt.Errorf("cluster: snapshot range [%d,%d) does not match shard %d's [%d,%d)",
			lo, hi, sh.id, sh.lo, sh.hi)
	}
	if len(labels) != hi-lo {
		return fmt.Errorf("cluster: snapshot has %d labels for range [%d,%d)", len(labels), lo, hi)
	}
	full := make([]graph.V, sh.n)
	for v := range full {
		full[v] = graph.V(v)
	}
	for i, l := range labels {
		if int(l) > lo+i {
			return fmt.Errorf("cluster: snapshot label[%d]=%d violates π(x) ≤ x", lo+i, l)
		}
		full[lo+i] = l
	}
	inc, err := core.RestoreIncremental(full)
	if err != nil {
		return err
	}
	// With provenance on, a restored member keeps the empty forest
	// initialize built: the snapshot carries labels, not edge history,
	// so pre-handoff witnesses are gone. Explain reports them as the
	// documented bootstrap gap.
	sh.inc = inc
	sh.edges = edges
	sh.resetRefs()
	for _, l := range labels {
		sh.noteRemote(l)
	}
	return nil
}
