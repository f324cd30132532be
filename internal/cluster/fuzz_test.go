package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"afforest/internal/graph"
)

// FuzzDecodeFrame drives readFrame and the bounds-checked cursor over
// arbitrary bytes. The invariants: no panic, no over-read past the
// frame, and any frame that decodes must re-encode (via writeFrameCtx)
// into bytes that decode to the same op, trace context, and payload.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed frames of each shape...
	var buf bytes.Buffer
	writeFrame(&buf, opPing, nil)
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	writeFrame(&buf, opEdges, encodePairs(nil, []pair{{V: 1, Label: 2}, {V: 3, Label: 4}}))
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	writeFrameCtx(&buf, opIngest, traceCtx{trace: 9, parent: 4, flags: 1}, encodePairs(nil, []pair{{V: 7, Label: 7}}))
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	writeFrame(&buf, opFlight, func() []byte {
		b := putU32(nil, 2)
		b = append(b, "hi"...)
		b = putU32(b, 0)
		b = putU32(b, 0)
		return b
	}())
	f.Add(append([]byte(nil), buf.Bytes()...))
	// ...and malformed ones: truncated extension, hostile lengths, a
	// flagged frame too short to hold the extension.
	f.Add([]byte{0, 0, 0, 2, opQuery | traceFlag, 1})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, opEdges})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, tc, payload, err := readFrame(bytes.NewReader(data))
		if err == nil {
			if op&traceFlag != 0 {
				t.Fatalf("readFrame left the trace flag set on op %d", op)
			}
			var rt bytes.Buffer
			if err := writeFrameCtx(&rt, op, tc, payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			op2, tc2, payload2, err := readFrame(&rt)
			if err != nil {
				t.Fatalf("re-decode of a re-encoded frame: %v", err)
			}
			if op2 != op || tc2 != tc || !bytes.Equal(payload2, payload) {
				t.Fatalf("round-trip drift: op %d→%d tc %+v→%+v payload %x→%x",
					op, op2, tc, tc2, payload, payload2)
			}
		}

		// The cursor must stay in bounds no matter what the payload
		// parsers ask of it; each script mirrors one op's decode shape.
		for _, script := range []func(c *cursor){
			func(c *cursor) { c.pairs() },
			func(c *cursor) { c.edges() },
			func(c *cursor) { c.u32(); c.pairs() },
			func(c *cursor) { c.u64(); c.u32(); c.u32() },
			func(c *cursor) { lo, hi := c.u32(), c.u32(); c.u64(); c.labels(int(hi) - int(lo)) },
			func(c *cursor) { c.block(); c.block(); c.block() },
			func(c *cursor) { c.hops(0) },
		} {
			c := &cursor{b: data}
			script(c)
			c.done()
		}
	})
}

// FuzzShardHandle sends scripts of arbitrary request frames through a
// shard's serve loop into its dispatcher. The shard is initialized with
// n = 64 as shard 1 of 3, so remote ids lie on both sides of its range.
// A script is a sequence of records op u8 | length u8 | payload; an op
// with the high bit set goes out with a trace context, and opInit
// records are skipped because opInit's allocation grows with n. The
// invariants: no panic, every frame is answered with its own op or with
// an opError naming the shard and the op, opPing still answers after
// the script, and the acks are still sorted refs. One dispatcher decodes every request, so this
// covers every request decoder and every range check in front of the
// ref bitset.
func FuzzShardHandle(f *testing.F) {
	rec := func(op byte, payload []byte) []byte { return append([]byte{op, byte(len(payload))}, payload...) }
	script := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	edges := encodePairs(nil, []pair{{V: 0, Label: 30}, {V: 30, Label: 63}, {V: 25, Label: 50}})
	f.Add(rec(opPing, nil))
	f.Add(script(rec(opEdges, edges), rec(opOutbox, nil),
		rec(opIngest, encodePairs(nil, []pair{{V: 30, Label: 0}, {V: 25, Label: 10}})),
		rec(opAbsorb, encodePairs(nil, []pair{{V: 50, Label: 0}, {V: 63, Label: 5}}))))
	f.Add(script(rec(opEdges|traceFlag, edges), rec(opOutbox|traceFlag, nil),
		rec(opAbsorb|traceFlag, encodePairs(nil, []pair{{V: 0, Label: 0}})), rec(opFlight|traceFlag, nil)))
	f.Add(script(rec(opQuery, putU32(nil, 64)), rec(opLabels, putU32(putU32(nil, 40), 10)),
		rec(opLabels, putU32(putU32(nil, 22), 44)), rec(opExplain, putU32(putU32(nil, 0), 63))))
	// A restore resets the acks to its own refs (5 and 10 here), and the
	// absorb's new label 3 folds in between kept acks.
	restored := make([]graph.V, 22)
	for i := range restored {
		restored[i] = graph.V(22 + i)
	}
	restored[0], restored[3], restored[5] = 5, 5, 10
	f.Add(script(rec(opRestore, encodeLabels(putU32(putU32(nil, 22), 44), restored)),
		rec(opEdges, encodePairs(nil, []pair{{V: 30, Label: 60}, {V: 23, Label: 1}})), rec(opOutbox, nil),
		rec(opAbsorb, encodePairs(nil, []pair{{V: 5, Label: 3}, {V: 60, Label: 40}})), rec(opOutbox, nil)))
	f.Add(script(rec(opLabels, putU32(putU32(nil, 22), 44)),
		rec(opRestore, encodeLabels(putU32(putU32(nil, 22), 44), make([]graph.V, 22))),
		rec(opShutdown, nil), rec(opError, []byte("x")), rec(0, nil)))
	// A resend outbox sends every ref again; any other payload is refused.
	f.Add(script(rec(opEdges, edges), rec(opOutbox, nil), rec(opOutbox, []byte{outboxResend}),
		rec(opOutbox, []byte{outboxResend}), rec(opOutbox, []byte{2}), rec(opOutbox, []byte{outboxResend, 0})))

	f.Fuzz(func(t *testing.T, script []byte) {
		sh := NewShard(1)
		if _, err := sh.handle(opInit, putU32(putU32(putU64(nil, 64), 3), 1), nil); err != nil {
			t.Fatalf("opInit: %v", err)
		}
		var conn net.Conn
		connect := func() {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				sh.serveConn(server)
			}()
			client.SetDeadline(time.Now().Add(10 * time.Second))
			conn = client
		}
		connect()
		defer func() { conn.Close() }()
		send := func(op byte, tc traceCtx, payload []byte) (byte, []byte) {
			if err := writeFrameCtx(conn, op, tc, payload); err != nil {
				t.Fatalf("%s: write: %v", opName(op), err)
			}
			rop, _, resp, err := readFrame(conn)
			if err != nil {
				t.Fatalf("%s: no answer: %v", opName(op), err)
			}
			return rop, resp
		}
		for len(script) >= 2 {
			op, k := script[0], min(int(script[1]), len(script)-2)
			payload := script[2 : 2+k]
			script = script[2+k:]
			var tc traceCtx
			if op&traceFlag != 0 {
				tc = traceCtx{trace: 1, parent: 1}
			}
			if op &^= traceFlag; op == opInit {
				continue
			}
			rop, resp := send(op, tc, payload)
			switch {
			case rop == opError:
				if prefix := "shard 1: " + opName(op) + ": "; !strings.HasPrefix(string(resp), prefix) {
					t.Fatalf("%s answered error %q, want the prefix %q", opName(op), resp, prefix)
				}
			case rop != op:
				t.Fatalf("%s answered %s", opName(op), opName(rop))
			case op == opShutdown:
				conn.Close()
				connect()
			}
		}
		if rop, resp := send(opPing, traceCtx{}, nil); rop != opPing {
			t.Fatalf("opPing after the script answered %s: %s", opName(rop), resp)
		}
		// Every fold kept the acks sorted, one per ref.
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for i, a := range sh.acks {
			if sh.refs[a.V/64]&(1<<(a.V%64)) == 0 || i > 0 && a.V <= sh.acks[i-1].V {
				t.Fatalf("acks %v are not sorted refs", sh.acks)
			}
		}
	})
}
