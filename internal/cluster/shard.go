package cluster

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"slices"
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
// refs, a dense bitset over [0, n). Each ref keeps an ack for as long as
// the shard keeps π: a label the ref's owner is known to hold for it.
// Every exchange round, the first included, sends the ref's owner a
// (ref, local label) opinion only for the refs whose label moved off
// their ack and the refs noted since the last scan, and owners answer
// only with news.
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

	// The exchange state, which lives as long as π: acks holds each
	// folded ref's ack, sorted by ref, and comps is π's component count
	// at the last scan. The refs noted since the last fold are the
	// numRefs − len(acks) refs missing from acks. Only initialize and
	// restore reset it.
	acks  []pair
	comps int

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

// serveConn answers frames on one connection until EOF or shutdown,
// reading them through a buffer so a small frame's header and payload
// cost one read. Shard-side errors go back wrapped with the shard's
// identity and the op that failed ("shard 2: opIngest: ...") so
// router-side logs and HTTP errors are attributable without guessing.
func (sh *Shard) serveConn(conn net.Conn) error {
	br := bufio.NewReader(conn)
	for {
		op, tc, payload, err := readFrame(br)
		if err != nil {
			return err
		}
		sp := sh.beginSrv(tc, op)
		respOp := op
		resp, err := sh.handle(op, payload, sp)
		if err != nil {
			err = fmt.Errorf("shard %d: %s: %w", sh.shardID(), opName(op), err)
			respOp, resp = opError, []byte(err.Error())
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
// every method is a no-op, so handle needs no branching.
type srvSpan struct {
	w     *obs.WireTrace
	trace uint64
	shard int
	opID  uint32
	cur   uint32 // open stage span
}

// beginSrv opens the server span chain when the request carries an
// active trace context and the op is a traced one.
func (sh *Shard) beginSrv(tc traceCtx, op byte) *srvSpan {
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
	return s
}

// decoded closes the decode stage and opens the work stage; handle
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
// Caller holds mu.
func (sh *Shard) tracer(s *srvSpan) *obs.Tracer {
	var sinks []obs.Sink
	if s != nil {
		sinks = append(sinks, sh.phases)
	}
	if sh.flight != nil {
		sinks = append(sinks, sh.flight)
	}
	if len(sinks) == 0 {
		return nil
	}
	return obs.NewTracer(sinks...)
}

// handle is the shard's one dispatcher. It decodes the request, takes
// mu, checks that the shard is initialized unless the op is answered
// before opInit, runs the op and encodes its reply; sp (nil when
// untraced) marks the decode → work → encode stages in between. It
// returns the reply payload, or an error to be sent as opError.
func (sh *Shard) handle(op byte, payload []byte, sp *srvSpan) ([]byte, error) {
	c := &cursor{b: payload}
	var merged int64
	var work func() error   // the op, run under mu
	var reply func() []byte // encodes the answer; nil for an empty one
	switch op {
	case opPing, opShutdown:
	case opInit:
		n, numShards, id := c.u64(), int(c.u32()), int(c.u32())
		work = func() error { return sh.initialize(int(n), numShards, id) }
	case opEdges:
		edges := c.edges()
		work = func() (err error) { merged, err = sh.applyEdges(edges, sh.tracer(sp)); return err }
		reply = func() []byte { return putU32(nil, uint32(merged)) }
	case opOutbox:
		resend := len(payload) > 0
		if resend && c.u8() != outboxResend {
			return nil, errors.New("cluster: unknown outbox payload")
		}
		var out []pair
		work = func() error {
			joined := sh.fold()
			if resend {
				sh.unack()
			}
			out = sh.scan(joined)
			return nil
		}
		reply = func() []byte { return encodePairs(nil, out) }
	case opIngest:
		pairs := c.pairs()
		var replies []pair
		work = func() (err error) { merged, replies, err = sh.ingest(pairs); return err }
		reply = func() []byte { return encodePairs(putU32(nil, uint32(merged)), replies) }
	case opAbsorb:
		pairs := c.pairs()
		var next []pair
		work = func() (err error) { merged, next, err = sh.absorb(pairs); return err }
		reply = func() []byte { return encodePairs(putU32(nil, uint32(merged)), next) }
	case opQuery:
		v := graph.V(c.u32())
		var label graph.V
		work = func() (err error) { label, err = sh.query(v); return err }
		reply = func() []byte { return putU32(nil, uint32(label)) }
	case opLabels:
		lo, hi := int(c.u32()), int(c.u32())
		var labels []graph.V
		work = func() (err error) { labels, err = sh.labelRange(lo, hi); return err }
		reply = func() []byte { return encodeLabels(nil, labels) }
	case opRestore:
		lo, hi := int(c.u32()), int(c.u32())
		labels := c.labels(hi - lo)
		work = func() error { return sh.restore(lo, hi, labels) }
	case opExplain:
		u, v := graph.V(c.u32()), graph.V(c.u32())
		var status byte
		var hops []provenance.Hop
		work = func() (err error) { status, hops, err = sh.explain(u, v); return err }
		reply = func() []byte { return encodeHops(nil, status, hops) }
	case opFlight:
		var dump []byte
		work = func() (err error) { dump, err = sh.flightDump(); return err }
		reply = func() []byte { return dump }
	default:
		return nil, fmt.Errorf("cluster: unknown op %d", op)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	sp.decoded()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.init && !ops[op].beforeInit {
		return nil, errors.New("cluster: shard not initialized")
	}
	if work != nil {
		if err := work(); err != nil {
			return nil, err
		}
	}
	sp.worked(merged)
	if reply == nil {
		return nil, nil
	}
	return reply(), nil
}

// initialize (re)creates the shard's state. Re-initialization is legal:
// a replacement shard process is initialized and then restored from the
// departed member's snapshot. n is bounded by the vertex id width
// (graph.V is 32 bits), so a corrupt opInit cannot make the shard
// allocate π and the ref set past what any graph needs. Caller holds
// mu.
func (sh *Shard) initialize(n, numShards, id int) error {
	if n < 0 || n > 1<<32 || numShards < 1 || id < 0 || id >= numShards {
		return fmt.Errorf("cluster: bad init n=%d shards=%d id=%d", n, numShards, id)
	}
	part := dist.NewPartitioning(n, numShards)
	if part.NumNodes != numShards {
		return fmt.Errorf("cluster: %d shards for %d vertices (partition supports %d)",
			numShards, n, part.NumNodes)
	}
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

func (sh *Shard) owned(v graph.V) bool { return int(v) >= sh.lo && int(v) < sh.hi }

// resetRefs empties the ref set, sized for the current n, and the
// exchange state, taking the current π's component count as the last
// scan's. Caller holds mu.
func (sh *Shard) resetRefs() {
	sh.refs = make([]uint64, (sh.n+63)/64)
	sh.numRefs = 0
	sh.acks = nil
	sh.comps = sh.inc.NumComponents()
}

// noteRemote records a remote vertex id as a ref; the next fold gives it
// an ack. v must be < n: an id past the bitset panics, and serveConn
// does not recover, so it would take the whole shard process down.
// Every caller range-checks wire input first. Caller holds mu.
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
// worker pool: Theorem 1 makes the interleaving irrelevant. Then every
// endpoint is pointed at its root, Fig 5's compress restricted to the
// batch at O(batch) cost, so the exchange's finds and links and the
// label reads walk shallow trees. With provenance on, ApplyBatch names
// the merging edges and compresses the same endpoints, and the forest
// records the merges in edge order. Caller holds mu.
func (sh *Shard) applyEdges(edges []graph.Edge, tr *obs.Tracer) (int64, error) {
	for _, e := range edges {
		if int(e.U) >= sh.n || int(e.V) >= sh.n {
			return 0, fmt.Errorf("cluster: edge {%d,%d} out of range (|V|=%d)", e.U, e.V, sh.n)
		}
		sh.noteRemote(e.U)
		sh.noteRemote(e.V)
	}
	sh.edges += int64(len(edges))
	if sh.prov == nil {
		merged := sh.inc.AddEdges(edges, sh.parallelism, tr)
		sh.inc.CompressEndpoints(edges, sh.parallelism)
		return merged, nil
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
// exactly once). Caller holds mu.
func (sh *Shard) flightDump() ([]byte, error) {
	var flight []byte
	if sh.flight != nil {
		flight = sh.flight.Snapshot(obs.DumpOptions{})
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

// unsent is the ack a fold gives a newly noted ref, which has not gone
// to its owner yet. It equals no find, so the next scan sends the ref
// even when it is its own root: the owner's reply to (ref, ref) is how a
// label chain across three or more shards shortens each round.
const unsent = ^graph.V(0)

// fold moves the refs noted since the last fold into acks, each with
// the ack unsent, and returns how many joined. Walking the ref bitset
// from the top yields ids in decreasing order, so the joined refs merge
// into acks from the back, in place and without a sort: an id equal to
// the last ack not yet moved is that ack, any other id is new. The walk
// stops once every new ref is placed, because the acks below it are
// already where they belong. Caller holds mu.
func (sh *Shard) fold() int {
	joined := sh.numRefs - len(sh.acks)
	if joined == 0 {
		return 0
	}
	i := len(sh.acks) - 1 // last ack not yet moved
	sh.acks = slices.Grow(sh.acks, joined)[:sh.numRefs]
	k := len(sh.acks) - 1 // next slot to fill
	for w := len(sh.refs) - 1; k > i; w-- {
		for word := sh.refs[w]; word != 0 && k > i; k-- {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			r := graph.V(w*64 + b)
			if i >= 0 && sh.acks[i].V == r {
				sh.acks[k] = sh.acks[i]
				i--
			} else {
				sh.acks[k] = pair{V: r, Label: unsent}
			}
		}
	}
	return joined
}

// unack resets every ack to unsent and forgets the last scan's
// component count, so the next scan sends every ref. It is the shard's
// half of the repair after a failed write, which may have lost opinions
// a scan had already acked. Caller holds mu.
func (sh *Shard) unack() {
	for i := range sh.acks {
		sh.acks[i].Label = unsent
	}
	sh.comps = -1
}

// scan returns the shard's next opinions: every ref whose find differs
// from its ack, in ref order, with the ack moved to that find. joined
// refs just got the ack unsent, so they all go out and size the result.
// When π has merged nothing since the last scan it returns nothing
// without walking the refs: no find moved, and a ref noted without a
// merge is its own root and waits for the next one (DESIGN.md §13).
// opOutbox is a scan; absorb ends with one. Caller holds mu.
func (sh *Shard) scan(joined int) []pair {
	comps := sh.inc.NumComponents()
	if comps == sh.comps {
		return nil
	}
	sh.comps = comps
	next := make([]pair, 0, joined)
	for i := range sh.acks {
		if f := sh.inc.Find(sh.acks[i].V); f != sh.acks[i].Label {
			sh.acks[i].Label = f
			next = append(next, sh.acks[i])
		}
	}
	return next
}

// ingest links remote opinions about owned vertices, then answers only
// the opinions whose owner label g after the whole batch differs from
// the label sent, each as (index into pairs, g) in request order.
// Silence acknowledges the label sent. Caller holds mu.
func (sh *Shard) ingest(pairs []pair) (int64, []pair, error) {
	var merged int64
	for _, p := range pairs {
		if !sh.owned(p.V) {
			return 0, nil, fmt.Errorf("cluster: ingest for %d, not owned by shard %d", p.V, sh.id)
		}
		if int(p.Label) >= sh.n {
			return 0, nil, fmt.Errorf("cluster: ingest label %d out of range", p.Label)
		}
		sh.noteRemote(p.Label)
		merged += sh.linkLabel(p)
	}
	var replies []pair
	for i, p := range pairs {
		if g := sh.inc.Find(p.V); g != p.Label {
			replies = append(replies, pair{V: graph.V(i), Label: g})
		}
	}
	return merged, replies, nil
}

// absorb links the owners' replies to this shard's opinions, folds the
// refs they noted, moves each replied ref's ack to the owner's label,
// and returns the next scan. A reply absorbed without a merge repeats
// the ack it answered (DESIGN.md §13), so a scan it skips misses
// nothing. Caller holds mu.
func (sh *Shard) absorb(pairs []pair) (int64, []pair, error) {
	for _, p := range pairs {
		if int(p.V) >= sh.n || int(p.Label) >= sh.n {
			return 0, nil, fmt.Errorf("cluster: absorb pair {%d,%d} out of range", p.V, p.Label)
		}
	}
	var merged int64
	for _, p := range pairs {
		sh.noteRemote(p.V)
		sh.noteRemote(p.Label)
		merged += sh.linkLabel(p)
	}
	joined := sh.fold()
	for _, p := range pairs {
		if i, ok := slices.BinarySearchFunc(sh.acks, p.V, func(a pair, v graph.V) int { return cmp.Compare(a.V, v) }); ok {
			sh.acks[i].Label = p.Label
		}
	}
	return merged, sh.scan(joined), nil
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

// explain answers opExplain: the local forest's witness path for (u,v),
// with the reply status that says whether it is one. Caller holds mu.
func (sh *Shard) explain(u, v graph.V) (byte, []provenance.Hop, error) {
	if int(u) >= sh.n || int(v) >= sh.n {
		return 0, nil, fmt.Errorf("cluster: explain pair {%d,%d} out of range (|V|=%d)", u, v, sh.n)
	}
	if sh.prov == nil {
		return explainDisabled, nil, nil
	}
	hops, ok := sh.prov.Explain(u, v)
	if !ok {
		return explainGap, hops, nil
	}
	return explainFound, hops, nil
}

// query returns find(v). The router asks the owner, so v is usually
// owned, but any vertex the shard knows about answers consistently.
// Caller holds mu.
func (sh *Shard) query(v graph.V) (graph.V, error) {
	if int(v) >= sh.n {
		return 0, fmt.Errorf("cluster: query vertex %d out of range (|V|=%d)", v, sh.n)
	}
	return sh.inc.Find(v), nil
}

// labelRange returns find(v) for every v in [lo, hi), in O(hi − lo)
// finds: applyEdges keeps the trees shallow, so the read compresses
// nothing. The router's census and a departing member's π handoff read
// the owned range through it. Caller holds mu.
func (sh *Shard) labelRange(lo, hi int) ([]graph.V, error) {
	if lo < 0 || hi < lo || hi > sh.n {
		return nil, fmt.Errorf("cluster: label range [%d,%d) out of bounds", lo, hi)
	}
	out := make([]graph.V, hi-lo)
	for v := lo; v < hi; v++ {
		out[v-lo] = sh.inc.Find(graph.V(v))
	}
	return out, nil
}

// restore installs a snapshot handed off from a departed member. The
// shard must have been initialized with the same partition; refs are
// rebuilt from the remote labels in the snapshot (ghost adjacency that
// no longer shows up in labels is already merged into them, so nothing
// is lost by not persisting the ghost set itself). The exchange state
// starts over with the restored π's component count as its last scan:
// the remote labels are refs that are their own roots, and they go out
// with the member's next merge. Caller holds mu.
func (sh *Shard) restore(lo, hi int, labels []graph.V) error {
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
	sh.resetRefs()
	for _, l := range labels {
		sh.noteRemote(l)
	}
	return nil
}
