package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// The wire trace is the distributed half of the tracer: where Tracer
// records the phase tree inside one process, WireTrace records the
// spans a cluster request fans out into — the router's client span per
// shard RPC, the exchange and per-round grouping spans, and the shards'
// server-side decode/work/encode spans, all stitched together by a
// trace id that rides the wire protocol's optional trace-context frame
// extension. Trace and span ids are process-local sequence counters,
// not random: under a pinned deterministic replay the same requests get
// the same ids, which is what lets the merged cluster timeline be
// byte-identical across replays in canonical mode.

// Wire span names. The cluster layer records its RPCs and server-side
// stages under these; the timeline merge keys on them.
const (
	// Client/server op spans (one per RPC; the same name appears on the
	// router's client span and the owning shard's server span).
	WireEdges  = "edges"
	WireOutbox = "outbox"
	WireIngest = "ingest"
	WireAbsorb = "absorb"
	WireQuery  = "query"
	WireLabels = "labels"
	WireFlight = "flight"

	// Router-side grouping spans.
	WireExchange = "exchange" // one exchange-to-fixed-point
	WireRound    = "round"    // one BSP superstep within an exchange

	// Shard-side stage spans (children of a server op span).
	WireDecode = "decode"
	WireWork   = "work"
	WireEncode = "encode"
)

// RouterShard is the Shard value wire spans recorded at the router
// itself (roots, exchange, round) carry — they belong to no shard.
const RouterShard = -1

// WireSpan is one completed span of a distributed cluster trace.
// Parent is a span id in the same process's WireTrace unless Remote is
// set, in which case it names a span in the originating (router)
// process — the id that traveled in the frame's trace-context
// extension. IDs start at 1; Parent 0 marks a trace root.
type WireSpan struct {
	Trace     uint64 `json:"trace"`
	ID        uint32 `json:"id"`
	Parent    uint32 `json:"parent,omitempty"`
	Remote    bool   `json:"remote,omitempty"`
	Name      string `json:"name"`
	Shard     int    `json:"shard"`
	Round     int    `json:"round,omitempty"` // exchange round ordinal (1-based), 0 outside exchange
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
	Pairs     int64  `json:"pairs,omitempty"`  // label pairs carried by the op
	Merged    int64  `json:"merged,omitempty"` // component merges the op produced
	Err       string `json:"err,omitempty"`
}

// WireEnd is the measurement payload handed to WireTrace.End.
type WireEnd struct {
	ReqBytes  int64
	RespBytes int64
	Pairs     int64
	Merged    int64
	Err       string
}

// DefaultWireCapacity is the completed-span ring capacity used when
// NewWireTrace is given a non-positive one.
const DefaultWireCapacity = 4096

// WireTrace records completed wire spans in a bounded ring. It is safe
// for concurrent use: the router fans RPCs out across shards from
// parallel goroutines, each beginning and ending its own span.
type WireTrace struct {
	mu       sync.Mutex
	epoch    time.Time
	done     Ring[WireSpan]
	open     map[uint32]WireSpan
	spanSeq  uint32
	traceSeq uint64
}

// NewWireTrace returns a recorder retaining the last capacity completed
// spans (<= 0 means DefaultWireCapacity). The ring's storage grows with
// the spans recorded, so an idle recorder costs almost nothing.
func NewWireTrace(capacity int) *WireTrace {
	if capacity <= 0 {
		capacity = DefaultWireCapacity
	}
	return &WireTrace{
		epoch: time.Now(),
		done:  NewRing[WireSpan](capacity),
		open:  make(map[uint32]WireSpan),
	}
}

// NewTrace allocates the next trace id (1, 2, 3, ... — deterministic
// across replays of the same request sequence).
func (w *WireTrace) NewTrace() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.traceSeq++
	return w.traceSeq
}

// Begin opens a span and returns its id (never 0). remote marks parent
// as an id from another process's trace (it arrived on the wire).
func (w *WireTrace) Begin(trace uint64, parent uint32, remote bool, name string, shard, round int) uint32 {
	now := time.Since(w.epoch).Nanoseconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.spanSeq++
	id := w.spanSeq
	w.open[id] = WireSpan{
		Trace: trace, ID: id, Parent: parent, Remote: remote,
		Name: name, Shard: shard, Round: round, StartNS: now,
	}
	return id
}

// End completes the span and moves it into the retained ring. Ending an
// unknown (or already-ended) id is a no-op, and id 0 — the "tracing
// off" sentinel — is always ignored, so call sites need no nil checks.
func (w *WireTrace) End(id uint32, e WireEnd) {
	if id == 0 {
		return
	}
	now := time.Since(w.epoch).Nanoseconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	sp, ok := w.open[id]
	if !ok {
		return
	}
	delete(w.open, id)
	sp.DurNS = now - sp.StartNS
	sp.ReqBytes, sp.RespBytes = e.ReqBytes, e.RespBytes
	sp.Pairs, sp.Merged = e.Pairs, e.Merged
	sp.Err = e.Err
	w.done.Push(sp)
}

// Add installs an externally completed span (the router uses it to fold
// shard-side spans fetched over opFlight into one merged view).
func (w *WireTrace) Add(sp WireSpan) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done.Push(sp)
}

// Spans returns the retained completed spans, oldest first. Within one
// (trace, shard) the order is the completion order, which per-shard RPC
// serialization makes deterministic; across shards the interleaving is
// racy, so deterministic consumers must re-sort (BuildClusterTimeline
// does).
func (w *WireTrace) Spans() []WireSpan {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done.Items()
}

// Drain returns the retained completed spans, oldest first, and clears
// the ring, keeping its storage; open spans are untouched. A shard's
// opFlight handler drains so each span reaches the router's merged view
// exactly once.
func (w *WireTrace) Drain() []WireSpan {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.done.Items()
	w.done.Reset()
	return out
}

// WriteJSONL dumps the retained spans one JSON object per line with a
// fixed field order. Canonical omits the wall-clock fields (start_ns,
// dur_ns) and the replay-racy span/parent ids, keeping only the logical
// content — but note cross-shard interleaving still makes the *order*
// racy; byte-stable canonical output is the timeline's job, not this
// dump's.
func (w *WireTrace) WriteJSONL(wr io.Writer, canonical bool) error {
	bw := bufio.NewWriter(wr)
	for _, sp := range w.Spans() {
		writeWireSpan(bw, sp, canonical)
	}
	return bw.Flush()
}

func writeWireSpan(bw *bufio.Writer, sp WireSpan, canonical bool) {
	bw.WriteString(`{"trace":`)
	bw.WriteString(strconv.FormatUint(sp.Trace, 10))
	if !canonical {
		bw.WriteString(`,"id":`)
		bw.WriteString(strconv.FormatUint(uint64(sp.ID), 10))
		if sp.Parent != 0 {
			bw.WriteString(`,"parent":`)
			bw.WriteString(strconv.FormatUint(uint64(sp.Parent), 10))
		}
		if sp.Remote {
			bw.WriteString(`,"remote":true`)
		}
	}
	bw.WriteString(`,"name":`)
	bw.WriteString(strconv.Quote(sp.Name))
	bw.WriteString(`,"shard":`)
	bw.WriteString(strconv.Itoa(sp.Shard))
	if sp.Round != 0 {
		bw.WriteString(`,"round":`)
		bw.WriteString(strconv.Itoa(sp.Round))
	}
	if !canonical {
		bw.WriteString(`,"start_ns":`)
		bw.WriteString(strconv.FormatInt(sp.StartNS, 10))
		bw.WriteString(`,"dur_ns":`)
		bw.WriteString(strconv.FormatInt(sp.DurNS, 10))
	}
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{"req_bytes", sp.ReqBytes},
		{"resp_bytes", sp.RespBytes},
		{"pairs", sp.Pairs},
		{"merged", sp.Merged},
	} {
		if f.v != 0 {
			bw.WriteString(`,"`)
			bw.WriteString(f.key)
			bw.WriteString(`":`)
			bw.WriteString(strconv.FormatInt(f.v, 10))
		}
	}
	if sp.Err != "" {
		bw.WriteString(`,"err":`)
		bw.WriteString(strconv.Quote(sp.Err))
	}
	bw.WriteString("}\n")
}
