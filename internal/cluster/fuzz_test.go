package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"
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
