package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"afforest/internal/graph"
)

// ReplayStats summarizes one scan of a log directory. Tail and the
// Diverged pair separate the two ways a scan can end early: a tail
// error on the final segment is the normal signature of a power cut
// (the unacked suffix is cleanly ignored), while Diverged means
// supposedly-durable history is damaged — a mid-log segment that stops
// early, an LSN gap the snapshot watermark does not cover, or
// corruption below the watermark — and the serving layer should raise
// the replay_divergence anomaly.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int `json:"segments"`
	// Records and Edges count applied records (LSN > the replay
	// watermark); Skipped counts valid records at or below it.
	Records int64 `json:"records"`
	Edges   int64 `json:"edges"`
	Skipped int64 `json:"skipped"`
	// LastLSN is the last valid record seen, applied or skipped
	// (0 = none).
	LastLSN LSN `json:"last_lsn"`
	// Tail is why the final segment's scan stopped before a clean EOF
	// ("" = clean). A torn record or unwritten space here is expected
	// after a crash.
	Tail string `json:"tail,omitempty"`
	// TailValidBytes is the byte length of the final segment's valid
	// prefix (header + intact records) — the truncation point recovery
	// cuts back to before appending resumes.
	TailValidBytes int64 `json:"tail_valid_bytes"`
	// Diverged marks damage to records that were supposed to be
	// durable; Divergence names it.
	Diverged   bool   `json:"diverged"`
	Divergence string `json:"divergence,omitempty"`
}

// segScan is the outcome of scanning one segment.
type segScan struct {
	firstLSN   LSN   // base from the header
	lastLSN    LSN   // last valid record (0 = none)
	records    int64 // valid records
	validBytes int64 // header + intact records
	stop       error // nil = clean EOF, else the ErrTorn/ErrCorrupt that ended the scan
}

// scanSegment streams one segment, invoking visit for every valid
// record in order. It never returns decode problems as errors — they
// end the scan and land in segScan.stop — only IO errors on a source
// that cannot be read at all and visit errors propagate.
func scanSegment(r io.Reader, visit func(lsn LSN, edges []graph.Edge) error) (segScan, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var sc segScan
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			sc.stop = fmt.Errorf("%w: segment header", ErrTorn)
			return sc, nil
		}
		return sc, err
	}
	base, err := parseHeader(hdr)
	if err != nil {
		sc.stop = err
		return sc, nil
	}
	sc.firstLSN = base
	sc.validBytes = int64(headerLen)
	expect := base
	frame := make([]byte, frameLen)
	var payload []byte
	for {
		n, err := io.ReadFull(br, frame)
		if err == io.EOF {
			return sc, nil // clean record boundary
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return sc, err
		}
		if allZero(frame[:n]) {
			sc.stop = fmt.Errorf("%w after lsn %d", errUnwritten, expect-1)
			return sc, nil
		}
		if err != nil {
			sc.stop = fmt.Errorf("%w: partial frame prefix", ErrTorn)
			return sc, nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(frame))
		sum := binary.LittleEndian.Uint32(frame[4:])
		if payloadLen < payloadMin || payloadLen > maxPayload {
			sc.stop = fmt.Errorf("%w: implausible payload length %d at lsn %d", ErrCorrupt, payloadLen, expect)
			return sc, nil
		}
		if cap(payload) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				sc.stop = fmt.Errorf("%w: partial payload at lsn %d", ErrTorn, expect)
				return sc, nil
			}
			return sc, err
		}
		lsn, edges, err := decodePayload(payload, sum)
		if err != nil {
			sc.stop = fmt.Errorf("%w (expected lsn %d)", err, expect)
			return sc, nil
		}
		if lsn != expect {
			sc.stop = fmt.Errorf("%w: lsn %d breaks continuity (expected %d)", ErrCorrupt, lsn, expect)
			return sc, nil
		}
		if err := visit(lsn, edges); err != nil {
			return sc, err
		}
		sc.lastLSN = lsn
		sc.records++
		sc.validBytes += int64(frameLen + payloadLen)
		expect++
	}
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Replay scans the log at dir and applies every record with LSN > after
// to apply, in LSN order. A missing directory replays nothing. The
// returned error covers only real failures — IO errors and apply
// rejections; crash tails and divergence are reported in the stats so
// the caller can keep serving while raising the alarm.
func Replay(fs FS, dir string, after LSN, apply func(lsn LSN, edges []graph.Edge) error) (ReplayStats, error) {
	if fs == nil {
		fs = OSFS
	}
	var st ReplayStats
	segs, err := listSegments(fs, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	diverge := func(format string, args ...any) {
		if !st.Diverged {
			st.Diverged = true
			st.Divergence = fmt.Sprintf(format, args...)
		}
	}
	// applying enforces the prefix guarantee: the instant anything breaks
	// — a mid-log torn record, an uncovered LSN gap — no further record
	// is applied, so the replayed set is always an exact prefix of the
	// acked sequence (never a mix of before and after a hole). Scanning
	// continues regardless, to diagnose and to position the next append
	// past every LSN the log ever assigned.
	applying := true
	prevLast := after // continuity cursor: the LSN history is covered through this
	for i, seg := range segs {
		if i == 0 {
			if seg.base > after+1 {
				diverge("first segment %s starts at lsn %d, past snapshot watermark %d", seg.path, seg.base, after)
				applying = false
			}
		} else if seg.base > prevLast+1 && seg.base > after+1 {
			diverge("segment %s starts at lsn %d, leaving (%d, %d) unreadable", seg.path, seg.base, prevLast, seg.base)
			applying = false
		}
		f, err := fs.Open(seg.path)
		if err != nil {
			return st, err
		}
		sc, err := scanSegment(f, func(lsn LSN, edges []graph.Edge) error {
			if lsn > st.LastLSN {
				st.LastLSN = lsn
			}
			if !applying {
				return nil
			}
			if lsn <= after {
				st.Skipped++
				return nil
			}
			if err := apply(lsn, edges); err != nil {
				return fmt.Errorf("wal: applying lsn %d: %w", lsn, err)
			}
			st.Records++
			st.Edges += int64(len(edges))
			return nil
		})
		cerr := f.Close()
		if err != nil {
			return st, err
		}
		if cerr != nil {
			return st, cerr
		}
		st.Segments++
		if sc.records > 0 && sc.lastLSN > prevLast {
			prevLast = sc.lastLSN
		}
		final := i == len(segs)-1
		if sc.stop != nil {
			if !final {
				diverge("segment %s: %v with %d later segment(s) present", seg.path, sc.stop, len(segs)-1-i)
				applying = false
			} else {
				st.Tail = sc.stop.Error()
				st.TailValidBytes = sc.validBytes
				if st.LastLSN < after {
					diverge("log damaged at lsn %d, below snapshot watermark %d: %v", st.LastLSN+1, after, sc.stop)
				}
			}
		} else if final {
			st.TailValidBytes = sc.validBytes
		}
	}
	return st, nil
}
