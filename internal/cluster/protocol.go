// Package cluster is distributed-memory Afforest (the paper's Section
// VII future work) as a deployment: a sharded connectivity service
// where a router process 1D-partitions the vertex space
// (dist.Partitioning) across N shard processes, each running Afforest's
// link/compress locally via core.Incremental over the arcs the router
// ships it (Fig 5's sampled and unskipped arcs of its own CSR rows on a
// load, routed edges on a stream), with component labels reconciled
// across shards by bulk-synchronous ghost-label exchange rounds over a
// wire.
//
// The wire protocol is length-prefixed binary over TCP:
//
//	frame   := length uint32 (big-endian, counts op+payload) | op uint8 | payload
//	pair    := vertex uint32 | label uint32 (little-endian, like the repo's file formats)
//
// Every RPC is one request frame answered by one response frame on a
// persistent connection (the router serializes requests per shard
// connection; fan-out across shards is concurrent). The router counts
// the pairs, bytes and rounds it moves (RouterStats) and exports them
// on its /metrics.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
)

// Protocol ops. Requests are router→shard; a response reuses the
// request op on success or carries opError with a UTF-8 message.
//
// The exchange ops run an exchange's rounds: opOutbox returns round 1's
// opinions, opIngest answers only the opinions its owner labels
// differently (a reply reuses the pair layout with the request index in
// the vertex slot), and opAbsorb returns the next round's opinions. A
// shard records every opinion it sends as that ref's ack and keeps the
// acks across exchanges, so no op ends one. An opOutbox carrying the
// byte outboxResend first resets every ack to unsent, so the shard
// sends every ref: the repair after a failed write. Byte 8 stays
// unassigned, so a peer that still sends the retired snapshot op gets
// an unknown-op error rather than another op's answer.
const (
	opInit     byte = 1  // n u64 | numShards u32 | shardID u32 → (empty)
	opEdges    byte = 2  // pairs (edges) → merged u32
	opOutbox   byte = 3  // (empty) or outboxResend u8 → pairs (remote ref, local label)
	opIngest   byte = 4  // pairs (owned v, remote opinion) → merged u32 | pairs (request index, owner label)
	opAbsorb   byte = 5  // pairs (remote ref, owner label) → merged u32 | pairs (remote ref, local label)
	opQuery    byte = 6  // v u32 → label u32
	opLabels   byte = 7  // lo u32 | hi u32 → labels [hi-lo]u32
	opRestore  byte = 9  // lo u32 | hi u32 | labels [hi-lo]u32 → (empty)
	opPing     byte = 10 // (empty) → (empty)
	opShutdown byte = 11 // (empty) → (empty), then the shard exits its serve loop
	opFlight   byte = 12 // (empty) → flightLen u32 | flight JSONL | phasesLen u32 | phase-span JSON | spansLen u32 | wire-span JSON
	opExplain  byte = 13 // u u32 | v u32 → status u8 | count u32 | hops (u u32 | v u32 | lsn u64 | ordinal u64 | flags u8)
	opError    byte = 99 // message string (response only)
)

// outboxResend is the opOutbox payload that asks for every ref.
const outboxResend byte = 1

// ops is the op table: each op's name in errors and logs, and its
// obs wire-span name. span is "" for ops not traced as spans: the rare
// control-plane calls outside any request's critical path (init,
// restore, ping, shutdown) and opExplain. beforeInit marks the ops a
// shard answers before opInit.
var ops = map[byte]struct {
	name, span string
	beforeInit bool
}{
	opInit:     {"opInit", "", true},
	opEdges:    {"opEdges", obs.WireEdges, false},
	opOutbox:   {"opOutbox", obs.WireOutbox, false},
	opIngest:   {"opIngest", obs.WireIngest, false},
	opAbsorb:   {"opAbsorb", obs.WireAbsorb, false},
	opQuery:    {"opQuery", obs.WireQuery, false},
	opLabels:   {"opLabels", obs.WireLabels, false},
	opRestore:  {"opRestore", "", false},
	opPing:     {"opPing", "", true},
	opShutdown: {"opShutdown", "", true},
	opFlight:   {"opFlight", obs.WireFlight, true},
	opExplain:  {"opExplain", "", false},
	opError:    {"opError", "", false},
}

// opName renders an op byte for error messages (the trace flag is
// masked off so a flagged request names cleanly).
func opName(op byte) string {
	if o, ok := ops[op&^traceFlag]; ok {
		return o.name
	}
	return fmt.Sprintf("op%d", op&^traceFlag)
}

// wireName maps a request op to its obs wire-span name; "" for ops
// that are not traced as spans.
func wireName(op byte) string { return ops[op&^traceFlag].span }

// --- trace-context frame extension ---

// traceFlag is the high bit of the frame's op byte. Unset, the frame is
// byte-identical to the pre-tracing protocol — the tracing-off fast
// path costs zero wire bytes. Set, a fixed 13-byte trace-context
// extension sits between the op byte and the payload:
//
//	ext := traceID uint64 | parentSpan uint32 | flags uint8 (little-endian)
//
// Only requests carry the extension (the router correlates responses by
// the request it just wrote — the per-shard connection is serial), but
// readFrame accepts it on any frame for symmetry.
const (
	traceFlag   byte = 0x80
	traceExtLen      = 13
)

// traceCtx is a decoded trace-context extension. The zero value means
// "tracing off" (trace ids start at 1, so 0 is never a live trace).
type traceCtx struct {
	trace  uint64
	parent uint32
	flags  uint8
}

func (tc traceCtx) active() bool { return tc.trace != 0 }

// maxFrame bounds a frame's payload so a corrupt or hostile length
// prefix cannot force an arbitrary allocation (same discipline as the
// chunked binary readers in internal/graph).
const maxFrame = 1 << 28

// writeFrame emits one untraced frame — byte-identical to the
// pre-tracing protocol. Counting happens at the conn wrapper, not here,
// so the byte metrics include the length prefix — what the wire
// actually carries.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	return writeFrameCtx(w, op, traceCtx{}, payload)
}

// writeFrameCtx emits one frame, with the trace-context extension
// between the op byte and the payload when tc is active. The inactive
// path takes the exact legacy layout — no flag bit, no extension bytes.
func writeFrameCtx(w io.Writer, op byte, tc traceCtx, payload []byte) error {
	var buf [5 + traceExtLen]byte
	hdr := buf[:5]
	if tc.active() {
		op |= traceFlag
		hdr = binary.LittleEndian.AppendUint64(hdr, tc.trace)
		hdr = binary.LittleEndian.AppendUint32(hdr, tc.parent)
		hdr = append(hdr, tc.flags)
	}
	binary.BigEndian.PutUint32(hdr, uint32(len(hdr)-4+len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting implausible lengths, and decodes
// the trace-context extension when the op byte carries the flag. tc is
// the zero value on untraced frames.
func readFrame(r io.Reader) (op byte, tc traceCtx, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, traceCtx{}, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 1 || length > maxFrame {
		return 0, traceCtx{}, nil, fmt.Errorf("cluster: bad frame length %d", length)
	}
	op = hdr[4]
	body := int(length) - 1
	if op&traceFlag != 0 {
		op &^= traceFlag
		if body < traceExtLen {
			return 0, traceCtx{}, nil, fmt.Errorf("cluster: frame length %d too short for trace extension", length)
		}
		var ext [traceExtLen]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return 0, traceCtx{}, nil, err
		}
		tc.trace = binary.LittleEndian.Uint64(ext[0:8])
		tc.parent = binary.LittleEndian.Uint32(ext[8:12])
		tc.flags = ext[12]
		if !tc.active() {
			// Trace ids start at 1, so parent/flags under trace 0 are
			// junk a peer put on the wire; normalize to the zero value
			// the encoder's inactive path round-trips.
			tc = traceCtx{}
		}
		body -= traceExtLen
	}
	if body > 0 {
		payload = make([]byte, body)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, traceCtx{}, nil, err
		}
	}
	return op, tc, payload, nil
}

// --- payload builders/parsers ---

func putU32(b []byte, v uint32) []byte {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	return append(b, x[:]...)
}

func putU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

// cursor is a bounds-checked little-endian payload reader.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("cluster: truncated payload at offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("cluster: truncated payload at offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// block reads a u32 length prefix followed by that many raw bytes
// (opFlight's dump sections).
func (c *cursor) block() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if int(n) > len(c.b)-c.off {
		c.err = fmt.Errorf("cluster: block length %d exceeds payload", n)
		return nil
	}
	out := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return out
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("cluster: %d trailing payload bytes", len(c.b)-c.off)
	}
	return nil
}

// pair is one (vertex, label) unit of the exchange protocol — the
// quantum RouterStats counts as a message.
type pair struct {
	V, Label graph.V
}

// encodePairs appends count + pairs, where the pairs are the lists'
// concatenation, to b, growing it once for the whole list.
func encodePairs(b []byte, lists ...[]pair) []byte {
	count := 0
	for _, l := range lists {
		count += len(l)
	}
	off := len(b) + 4
	b = slices.Grow(b, 4+8*count)[:off+8*count]
	binary.LittleEndian.PutUint32(b[off-4:], uint32(count))
	for _, l := range lists {
		for _, p := range l {
			binary.LittleEndian.PutUint32(b[off:], p.V)
			binary.LittleEndian.PutUint32(b[off+4:], p.Label)
			off += 8
		}
	}
	return b
}

// list reads a pair count and returns the 8-byte records that follow,
// checking once that the payload holds them all.
func (c *cursor) list() []byte {
	count := c.u32()
	if c.err != nil {
		return nil
	}
	if int(count) > (len(c.b)-c.off)/8 {
		c.err = fmt.Errorf("cluster: pair count %d exceeds payload", count)
		return nil
	}
	b := c.b[c.off : c.off+8*int(count)]
	c.off += len(b)
	return b
}

// pairs reads count + pairs from the cursor.
func (c *cursor) pairs() []pair {
	b := c.list()
	if c.err != nil {
		return nil
	}
	out := make([]pair, len(b)/8)
	for i := range out {
		r := b[8*i : 8*i+8]
		out[i] = pair{V: binary.LittleEndian.Uint32(r), Label: binary.LittleEndian.Uint32(r[4:])}
	}
	return out
}

// edges reads the same layout as pairs straight into edges, (U, V) =
// (V, Label): opEdges links them without a copy.
func (c *cursor) edges() []graph.Edge {
	b := c.list()
	if c.err != nil {
		return nil
	}
	out := make([]graph.Edge, len(b)/8)
	for i := range out {
		r := b[8*i : 8*i+8]
		out[i] = graph.Edge{U: binary.LittleEndian.Uint32(r), V: binary.LittleEndian.Uint32(r[4:])}
	}
	return out
}

// opExplain reply statuses. A shard without a forest says so in its
// reply, so the router answers as a single node does, not with the
// shard's error.
const (
	explainGap      byte = 0 // the local forest does not connect the pair
	explainFound    byte = 1 // the hops are the pair's witness segment
	explainDisabled byte = 2 // the shard records no provenance
)

// encodeHops serializes an opExplain witness segment: status, hop
// count, then each hop's endpoints, LSN, ordinal, and a flags byte
// (bit 0: ghost). The recording shard is implicit — the router stamps
// hops with the shard it asked.
func encodeHops(b []byte, status byte, hops []provenance.Hop) []byte {
	b = append(b, status)
	b = putU32(b, uint32(len(hops)))
	for _, h := range hops {
		b = putU32(b, uint32(h.U))
		b = putU32(b, uint32(h.V))
		b = putU64(b, h.LSN)
		b = putU64(b, h.Ordinal)
		var flags byte
		if h.Ghost {
			flags |= 1
		}
		b = append(b, flags)
	}
	return b
}

// u8 reads one byte.
func (c *cursor) u8() byte {
	if c.err != nil {
		return 0
	}
	if c.off+1 > len(c.b) {
		c.err = fmt.Errorf("cluster: truncated payload at offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// hops decodes an opExplain response, stamping each hop with the shard
// that answered.
func (c *cursor) hops(shard int) (byte, []provenance.Hop) {
	status := c.u8()
	count := c.u32()
	if c.err == nil && status > explainDisabled {
		c.err = fmt.Errorf("cluster: unknown opExplain status %d", status)
	}
	if c.err != nil {
		return 0, nil
	}
	const hopWire = 4 + 4 + 8 + 8 + 1
	if int(count) > (len(c.b)-c.off)/hopWire {
		c.err = fmt.Errorf("cluster: hop count %d exceeds payload", count)
		return 0, nil
	}
	out := make([]provenance.Hop, count)
	for i := range out {
		u := graph.V(c.u32())
		v := graph.V(c.u32())
		lsn := c.u64()
		ord := c.u64()
		flags := c.u8()
		out[i] = provenance.Hop{U: u, V: v, LSN: lsn, Ordinal: ord, Ghost: flags&1 != 0, Shard: shard}
	}
	return status, out
}

// encodeLabels serializes a label block.
func encodeLabels(b []byte, labels []graph.V) []byte {
	for _, l := range labels {
		b = putU32(b, uint32(l))
	}
	return b
}

func (c *cursor) labels(count int) []graph.V {
	if c.err != nil {
		return nil
	}
	if count < 0 || count > (len(c.b)-c.off)/4 {
		c.err = fmt.Errorf("cluster: label count %d exceeds payload", count)
		return nil
	}
	out := make([]graph.V, count)
	for i := range out {
		out[i] = graph.V(c.u32())
	}
	return out
}

// --- byte-counting connection wrapper ---

// countedConn wraps a stream and tallies the bytes actually written and
// read — frame prefixes included — into both local atomics (for
// RouterStats) and optional registry counters (for /metrics).
type countedConn struct {
	rw         io.ReadWriter
	sent, recv atomic.Int64
	sentCtr    *obs.Counter // may be nil
	recvCtr    *obs.Counter // may be nil
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	if n > 0 {
		c.recv.Add(int64(n))
		if c.recvCtr != nil {
			c.recvCtr.Add(int64(n))
		}
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	if n > 0 {
		c.sent.Add(int64(n))
		if c.sentCtr != nil {
			c.sentCtr.Add(int64(n))
		}
	}
	return n, err
}
