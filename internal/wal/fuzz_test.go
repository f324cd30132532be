package wal

import (
	"bytes"
	"errors"
	"testing"

	"afforest/internal/graph"
)

// FuzzWALDecode feeds hostile bytes to every decode path a segment file
// flows through on recovery: the slice record decoder, the header
// parser, and the streaming segment scanner. The properties under test
// mirror internal/cluster's frame fuzzing: no panic, no unbounded
// allocation from a hostile length prefix, every failure is a
// structured ErrTorn/ErrCorrupt, and anything the encoder produced
// round-trips exactly.
func FuzzWALDecode(f *testing.F) {
	// Well-formed seeds: a header, an empty record, a fat record, two
	// records back to back inside a segment image.
	f.Add(appendHeader(nil, 1))
	f.Add(appendRecord(nil, 1, nil))
	f.Add(appendRecord(nil, 42, []graph.Edge{{U: 3, V: 9}, {U: 0, V: ^uint32(0)}}))
	seg := appendHeader(nil, 7)
	seg = appendRecord(seg, 7, []graph.Edge{{U: 1, V: 2}})
	seg = appendRecord(seg, 8, []graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}})
	f.Add(seg)
	// The active segment as a crash leaves it: records, then the zeros
	// Append grew the file by (a whole frame's worth, and less).
	f.Add(append(append([]byte(nil), seg...), make([]byte, 64)...))
	f.Add(append(append([]byte(nil), seg...), 0, 0, 0))
	// Malformed seeds: truncations, a hostile length prefix claiming a
	// huge payload, a flipped CRC.
	f.Add(seg[:len(seg)-3])
	f.Add([]byte("AFWAL"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	hostile := appendRecord(nil, 1, []graph.Edge{{U: 1, V: 2}})
	hostile[0], hostile[1], hostile[2], hostile[3] = 0xff, 0xff, 0xff, 0x7f
	f.Add(hostile)
	flipped := appendRecord(nil, 5, []graph.Edge{{U: 8, V: 9}})
	flipped[len(flipped)-1] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Slice decoder: consumed bytes must stay within the input, the
		// edge slice must agree with the payload (no over-alloc), and a
		// successful decode must re-encode to the identical bytes.
		lsn, edges, consumed, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeRecord: unstructured error %v", err)
			}
			if consumed != 0 {
				t.Fatalf("decodeRecord consumed %d bytes on error", consumed)
			}
		} else {
			if consumed <= 0 || consumed > len(data) {
				t.Fatalf("decodeRecord consumed %d of %d bytes", consumed, len(data))
			}
			if len(edges) > maxRecordEdges {
				t.Fatalf("decoded %d edges past the bound", len(edges))
			}
			if re := appendRecord(nil, lsn, edges); !bytes.Equal(re, data[:consumed]) {
				t.Fatalf("round-trip mismatch: %x != %x", re, data[:consumed])
			}
		}

		// Header parser.
		if base, err := parseHeader(data); err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseHeader: unstructured error %v", err)
			}
		} else if re := appendHeader(nil, base); !bytes.Equal(re, data[:headerLen]) {
			t.Fatalf("header round-trip mismatch")
		}

		// Streaming scanner over the same bytes as a segment image. It
		// must never return a decode problem as an error (only sc.stop),
		// must visit records in contiguous LSN order from the header's
		// base, and validBytes must never exceed the input.
		var visited []LSN
		sc, err := scanSegment(bytes.NewReader(data), func(lsn LSN, edges []graph.Edge) error {
			if len(edges) > maxRecordEdges {
				t.Fatalf("scanner passed %d edges past the bound", len(edges))
			}
			visited = append(visited, lsn)
			return nil
		})
		if err != nil {
			t.Fatalf("scanSegment returned an error for in-memory bytes: %v", err)
		}
		if sc.stop != nil && !errors.Is(sc.stop, ErrTorn) && !errors.Is(sc.stop, ErrCorrupt) {
			t.Fatalf("scanSegment stop is unstructured: %v", sc.stop)
		}
		if sc.validBytes > int64(len(data)) {
			t.Fatalf("validBytes %d exceeds input %d", sc.validBytes, len(data))
		}
		if int64(len(visited)) != sc.records {
			t.Fatalf("visited %d records, scan counted %d", len(visited), sc.records)
		}
		for i, lsn := range visited {
			if lsn != sc.firstLSN+LSN(i) {
				t.Fatalf("record %d has lsn %d, want %d", i, lsn, sc.firstLSN+LSN(i))
			}
		}
		// The scan calls what follows its last record unwritten space
		// exactly when that frame prefix is all zeros.
		if sc.validBytes >= int64(headerLen) && sc.validBytes < int64(len(data)) {
			next := data[sc.validBytes:min(sc.validBytes+frameLen, int64(len(data)))]
			if zero := bytes.Count(next, []byte{0}) == len(next); zero != errors.Is(sc.stop, errUnwritten) {
				t.Fatalf("frame prefix %x after the last record, scan stopped with %v", next, sc.stop)
			}
		}
	})
}
