package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"afforest/internal/graph"
)

// Options tunes a Log. The zero value is production-reasonable.
type Options struct {
	// SegmentBytes is the rotation threshold: a record that would push
	// the active segment past it opens a fresh segment first
	// (0 = default 64MiB). A single record larger than the threshold
	// still lands whole — segments may exceed it by one record.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends then become durable at
	// the OS's leisure: a crash can lose acknowledged batches, which is
	// exactly what the wal_lag anomaly rule watches (DurableLSN falls
	// behind AppendedLSN). Group commit — one fsync per coalesced batch
	// — is the default.
	NoSync bool
	// FS substitutes the filesystem (nil = the real one). The crashtest
	// harness injects its journaling in-memory FS here.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < int64(headerLen)+recordSize(0) {
		o.SegmentBytes = int64(headerLen) + recordSize(0)
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	return o
}

// Stats is a point-in-time view of the log's durability position,
// readable concurrently with appends (all fields are maintained
// atomically). The appended/durable split is the write-behind exposure:
// with NoSync the durable markers trail until the next explicit Sync.
type Stats struct {
	AppendedLSN   LSN   // last record written
	DurableLSN    LSN   // last record known fsynced
	AppendedBytes int64 // total record bytes written (headers included)
	DurableBytes  int64 // record bytes covered by an fsync
	Segments      int64 // live segment files
}

// growStep is how far Append extends the active segment's file when a
// record would pass its end (see growLocked).
const growStep = 4 << 20

// Log is an append-only segment-rotating write-ahead log of edge
// batches. One goroutine appends at a time (the serve layer's batcher);
// Stats, Err and the LSN accessors are safe from any goroutine.
//
// The active segment's file runs ahead of its records: Append grows it
// by growStep at a time and writes each record into the zeros past the
// last one. Close, rotation and the fail-stop cut leave a segment at
// exactly its last record; after a crash, Open cuts the unwritten space
// with the torn tail.
//
// The log is fail-stop: the first write, fsync or segment error is
// sticky. The record that hit it is cut back out of the segment (a cut
// that fails too is joined to the error), and every later Append
// returns that error without touching the files. The log on disk then
// holds exactly the records whose Append returned nil.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	cur     File
	curPath string
	curSize int64 // end of the active segment's last record
	curCap  int64 // the active segment's file size: [curSize, curCap) is unwritten
	nextLSN LSN
	buf     []byte
	closed  bool
	failure atomic.Pointer[error] // first I/O error; set once, never cleared

	appendedLSN   atomic.Uint64
	durableLSN    atomic.Uint64
	appendedBytes atomic.Int64
	durableBytes  atomic.Int64
	segments      atomic.Int64
}

// Open recovers the log at dir and prepares it for appending: every
// record with LSN > after is replayed through apply in order, the torn
// tail or unwritten space a power cut left is truncated away, and the
// next append is assigned max(lastLSN, after)+1. The returned
// ReplayStats carries the crash/divergence verdict; Open succeeds even
// for a diverged log (the snapshot already covers the damaged range or
// the caller wants the service up regardless) — callers decide how
// loudly to alarm.
func Open(dir string, after LSN, apply func(lsn LSN, edges []graph.Edge) error, opt Options) (*Log, ReplayStats, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	st, err := Replay(opt.FS, dir, after, apply)
	if err != nil {
		return nil, st, err
	}
	l := &Log{dir: dir, opt: opt, nextLSN: max(st.LastLSN, after) + 1}
	segs, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, st, err
	}
	l.segments.Store(int64(len(segs)))
	if len(segs) > 0 {
		tail := segs[len(segs)-1]
		switch {
		case st.TailValidBytes < int64(headerLen):
			// Not even the header survived; the file carries no
			// information. Drop it and start fresh below.
			if err := opt.FS.Remove(tail.path); err != nil {
				return nil, st, err
			}
			l.segments.Add(-1)
		case tail.base+LSN(tailRecords(st, tail.base)) == l.nextLSN:
			// The tail continues exactly at our next LSN: truncate any
			// torn bytes and append in place.
			f, err := opt.FS.OpenAppend(tail.path, st.TailValidBytes)
			if err != nil {
				return nil, st, err
			}
			l.cur, l.curPath = f, tail.path
			l.curSize, l.curCap = st.TailValidBytes, st.TailValidBytes
		default:
			// A watermark jump (snapshot newer than the readable log)
			// would break the tail's LSN continuity. Cut the torn bytes
			// so future scans see a clean segment, then rotate.
			f, err := opt.FS.OpenAppend(tail.path, st.TailValidBytes)
			if err != nil {
				return nil, st, err
			}
			if err := f.Close(); err != nil {
				return nil, st, err
			}
		}
	}
	l.appendedLSN.Store(uint64(l.nextLSN - 1))
	l.durableLSN.Store(uint64(l.nextLSN - 1))
	return l, st, nil
}

// tailRecords returns how many records the final segment (base tail)
// holds, derived from the scan's last-seen LSN.
func tailRecords(st ReplayStats, tail LSN) uint64 {
	if st.LastLSN < tail {
		return 0
	}
	return uint64(st.LastLSN-tail) + 1
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns the current durability position.
func (l *Log) Stats() Stats {
	return Stats{
		AppendedLSN:   LSN(l.appendedLSN.Load()),
		DurableLSN:    LSN(l.durableLSN.Load()),
		AppendedBytes: l.appendedBytes.Load(),
		DurableBytes:  l.durableBytes.Load(),
		Segments:      l.segments.Load(),
	}
}

// Err returns the error that stopped the log, or nil while it is
// healthy.
func (l *Log) Err() error {
	if p := l.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// stop records err as the log's failure unless one is already recorded,
// and returns err.
func (l *Log) stop(err error) error {
	l.failure.CompareAndSwap(nil, &err)
	return err
}

// Append writes one batch as a single record and, unless NoSync is set,
// fsyncs before returning — the group-commit point: when Append
// returns, the batch is durable and every request coalesced into it may
// be acknowledged. Returns the record's LSN. After any I/O error Append
// fails with that error for good (see Log).
func (l *Log) Append(edges []graph.Edge) (LSN, error) {
	if len(edges) > maxRecordEdges {
		return 0, fmt.Errorf("wal: batch of %d edges exceeds the %d-edge record bound", len(edges), maxRecordEdges)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if err := l.Err(); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	l.buf = appendRecord(l.buf[:0], lsn, edges)
	if l.cur != nil && l.curSize > int64(headerLen) && l.curSize+int64(len(l.buf)) > l.opt.SegmentBytes {
		if err := l.closeCurLocked(); err != nil {
			return 0, l.stop(err)
		}
	}
	if l.cur == nil {
		if err := l.openSegmentLocked(lsn); err != nil {
			return 0, l.stop(err)
		}
	}
	end := l.curSize + int64(len(l.buf))
	var err error
	if end > l.curCap {
		err = l.growLocked(end)
	}
	if err == nil {
		_, err = l.cur.Write(l.buf)
	}
	if err == nil && !l.opt.NoSync {
		err = l.cur.Sync()
	}
	if err != nil {
		// Cut the record out: a torn one would end replay at the tear,
		// and one the fsync refused would replay a batch that was
		// answered with an error.
		return 0, l.stop(errors.Join(fmt.Errorf("wal: appending lsn %d: %w", lsn, err), l.cutLocked()))
	}
	l.curSize = end
	l.nextLSN++
	l.appendedLSN.Store(uint64(lsn))
	l.appendedBytes.Add(int64(len(l.buf)))
	if !l.opt.NoSync {
		l.durableLSN.Store(uint64(lsn))
		l.durableBytes.Store(l.appendedBytes.Load())
	}
	return lsn, nil
}

// cutLocked closes the active segment and truncates it back to its last
// whole record (curSize), dropping whatever a failed append wrote.
func (l *Log) cutLocked() error {
	_ = l.cur.Close() // abandoned: the reopen below decides what survives
	f, err := l.opt.FS.OpenAppend(l.curPath, l.curSize)
	l.cur, l.curSize, l.curCap = nil, 0, 0
	if err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: cutting the failed record: %w", err)
	}
	return nil
}

// growLocked extends the active segment's file so that a record ending
// at end fits: growStep past its current size, capped at SegmentBytes,
// and never short of end. The records that follow are written into
// space the file already has, so their fsyncs commit no new file size;
// one fsync per grow does.
func (l *Log) growLocked(end int64) error {
	size := max(min(l.curCap+growStep, l.opt.SegmentBytes), end)
	if err := l.cur.Truncate(size); err != nil {
		return fmt.Errorf("growing the segment to %d bytes: %w", size, err)
	}
	l.curCap = size
	return nil
}

// trimLocked cuts the active segment's unwritten space, so the file
// ends at its last record.
func (l *Log) trimLocked() error {
	if l.curCap == l.curSize {
		return nil
	}
	if err := l.cur.Truncate(l.curSize); err != nil {
		return l.stop(fmt.Errorf("wal: cutting the segment's unwritten space: %w", err))
	}
	l.curCap = l.curSize
	return nil
}

// Sync fsyncs the active segment, advancing the durable markers. A
// no-op when everything appended is already durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.Err() != nil {
		return l.Err()
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.cur.Sync(); err != nil {
		return l.stop(fmt.Errorf("wal: fsync: %w", err))
	}
	l.durableLSN.Store(l.appendedLSN.Load())
	l.durableBytes.Store(l.appendedBytes.Load())
	return nil
}

// Close cuts the active segment's unwritten space, fsyncs and closes
// it. Further appends fail. A stopped log is closed without a cut or an
// fsync and returns its failure. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.Err()
	if l.cur == nil {
		return err
	}
	if err == nil {
		err = l.trimLocked()
	}
	if err == nil {
		err = l.syncLocked()
	}
	if cerr := l.closeCurNoCreate(); err == nil {
		err = cerr
	}
	return err
}

// closeCurLocked cuts, syncs and closes the active segment ahead of a
// rotation. The cut comes first, so the fsync makes it durable before
// the next segment exists: no segment but the last ever ends in
// unwritten space.
func (l *Log) closeCurLocked() error {
	if err := l.trimLocked(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.closeCurNoCreate()
}

func (l *Log) closeCurNoCreate() error {
	err := l.cur.Close()
	l.cur, l.curSize, l.curCap = nil, 0, 0
	if err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	return nil
}

// openSegmentLocked creates the segment whose first record will be
// base.
func (l *Log) openSegmentLocked(base LSN) error {
	path := filepath.Join(l.dir, segmentName(base))
	f, err := l.opt.FS.Create(path)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := appendHeader(nil, base)
	n, err := f.Write(hdr)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.cur, l.curPath = f, path
	l.curSize, l.curCap = int64(n), int64(n)
	l.appendedBytes.Add(int64(n))
	l.segments.Add(1)
	if err := l.opt.FS.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// TruncateThrough removes every segment whose records all carry
// LSN <= lsn — the snapshot-anchored truncation: after a label snapshot
// records watermark W, history at or below W is redundant. The active
// (final) segment is never removed. Returns how many segments were
// deleted.
func (l *Log) TruncateThrough(lsn LSN) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.opt.FS, l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		// A segment's records end at the next segment's base minus one.
		if segs[i+1].base-1 > lsn {
			break
		}
		if err := l.opt.FS.Remove(segs[i].path); err != nil {
			return removed, err
		}
		removed++
		l.segments.Add(-1)
	}
	if removed > 0 {
		if err := l.opt.FS.SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
