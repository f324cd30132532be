// Package wal is the serving layer's durability substrate: a
// segment-rotating write-ahead log for edge batches. Every coalesced
// POST /edges batch becomes one CRC32C-framed, length-prefixed record
// carrying a monotonic log sequence number (LSN); the record is written
// and fsynced *before* the batch is applied to π and acknowledged, so a
// crash after the ack can never lose the batch (write-ahead + group
// commit: the fsync is per coalesced batch, amortized over every
// request riding in it). On restart, Open scans the segments, replays
// every durable batch past the snapshot's watermark into the live
// structure, truncates the torn tail or unwritten space a power cut
// left behind, and resumes appending — union-find application is
// idempotent, so a fuzzy snapshot watermark only ever causes harmless
// re-application, never loss.
//
// On-disk layout (all integers little-endian):
//
//	segment file  wal-<baseLSN:016x>.seg
//	  header  magic "AFWAL\x01" (6 bytes) | baseLSN uint64
//	  record* payloadLen uint32 | crc uint32 | payload
//	  zeros*  active segment only: unwritten space
//	  payload lsn uint64 | count uint32 | count × (u uint32, v uint32)
//
// crc is CRC-32C (Castagnoli) over the payload bytes. Records within a
// segment carry consecutive LSNs starting at baseLSN. The active
// segment's file runs ahead of its records: Append grows it 4MiB at a
// time (never past SegmentBytes) and writes each record into the zeros
// past the last one, so the fsync after it commits no new file size.
// Close and rotation cut that space, so a closed segment ends at its
// last record. A record that fails any check — truncated frame, a frame
// prefix of zeros (unwritten space), implausible length, count/length
// mismatch, CRC mismatch, LSN discontinuity — ends the scan of its
// segment: in the final segment that is the expected signature of a
// power cut (clean truncation point, which Open cuts back to); in any
// earlier segment it is corruption of supposedly-immutable history and
// is flagged as divergence.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"afforest/internal/graph"
)

// LSN is a log sequence number: 1 for the first record ever appended,
// strictly +1 per record. 0 means "nothing" (a snapshot watermark of 0
// replays the whole log).
type LSN uint64

const (
	segMagic   = "AFWAL\x01"
	headerLen  = len(segMagic) + 8 // magic | baseLSN
	payloadMin = 12                // lsn u64 | count u32
	frameLen   = 8                 // payloadLen u32 | crc u32

	// maxRecordEdges bounds one record so a corrupt or hostile length
	// prefix cannot force an arbitrary allocation (the same discipline
	// as internal/graph's chunked readers and internal/cluster's
	// maxFrame). 1<<22 edges is a 32MiB payload — far above any
	// coalesced batch the serve layer produces.
	maxRecordEdges = 1 << 22
	maxPayload     = payloadMin + 8*maxRecordEdges
)

// castagnoli is the CRC-32C table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Structured decode errors. Scanners and callers dispatch with
// errors.Is; every returned error wraps one of these with positional
// context.
var (
	// ErrTorn marks a frame cut short: a partial length prefix, partial
	// CRC, or payload shorter than its declared length — what a power
	// cut mid-write leaves at the tail.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt marks a structurally complete record whose bytes are
	// wrong: CRC mismatch, implausible length, count/length
	// disagreement, or an LSN that breaks the segment's continuity.
	ErrCorrupt = errors.New("wal: corrupt record")
	// errUnwritten marks a frame prefix of zeros where the next record
	// would begin. No record starts that way (its length would be 0):
	// it is the space Append grows the active segment by, which a crash
	// leaves past the last record. It wraps ErrTorn.
	errUnwritten = fmt.Errorf("%w: unwritten space", ErrTorn)
)

// appendHeader encodes a segment header.
func appendHeader(b []byte, base LSN) []byte {
	b = append(b, segMagic...)
	return binary.LittleEndian.AppendUint64(b, uint64(base))
}

// parseHeader validates a segment header and returns its base LSN.
func parseHeader(b []byte) (LSN, error) {
	if len(b) < headerLen {
		return 0, fmt.Errorf("%w: segment header %d bytes, want %d", ErrTorn, len(b), headerLen)
	}
	if string(b[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, b[:len(segMagic)])
	}
	return LSN(binary.LittleEndian.Uint64(b[len(segMagic):headerLen])), nil
}

// appendRecord encodes one record (frame + payload) onto b.
func appendRecord(b []byte, lsn LSN, edges []graph.Edge) []byte {
	payloadLen := payloadMin + 8*len(edges)
	start := len(b)
	b = append(b, make([]byte, frameLen)...)
	b = binary.LittleEndian.AppendUint64(b, uint64(lsn))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(edges)))
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b, e.U)
		b = binary.LittleEndian.AppendUint32(b, e.V)
	}
	payload := b[start+frameLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// recordSize returns the encoded size of a record holding n edges.
func recordSize(n int) int64 { return int64(frameLen + payloadMin + 8*n) }

// decodePayload validates a complete payload against its frame CRC and
// decodes it for the segment scanner.
func decodePayload(payload []byte, sum uint32) (LSN, []graph.Edge, error) {
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return 0, nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorrupt, got, sum)
	}
	lsn := LSN(binary.LittleEndian.Uint64(payload))
	count := int(binary.LittleEndian.Uint32(payload[8:]))
	if count > maxRecordEdges || len(payload) != payloadMin+8*count {
		return 0, nil, fmt.Errorf("%w: count %d disagrees with payload length %d", ErrCorrupt, count, len(payload))
	}
	edges := make([]graph.Edge, count)
	for i := range edges {
		off := payloadMin + 8*i
		edges[i] = graph.Edge{
			U: binary.LittleEndian.Uint32(payload[off:]),
			V: binary.LittleEndian.Uint32(payload[off+4:]),
		}
	}
	return lsn, edges, nil
}
