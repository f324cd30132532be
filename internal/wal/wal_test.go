package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afforest/internal/graph"
)

// collectReplay replays dir and returns the batches in order.
func collectReplay(t *testing.T, fs FS, dir string, after LSN) (batches map[LSN][]graph.Edge, st ReplayStats) {
	t.Helper()
	batches = map[LSN][]graph.Edge{}
	st, err := Replay(fs, dir, after, func(lsn LSN, edges []graph.Edge) error {
		batches[lsn] = edges
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return batches, st
}

func testBatch(k, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(k*100 + i), V: uint32(k*100 + i + 1)}
	}
	return edges
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Diverged {
		t.Fatalf("fresh log replayed %+v", st)
	}
	want := map[LSN][]graph.Edge{}
	for k := 0; k < 20; k++ {
		edges := testBatch(k, k%5)
		lsn, err := l.Append(edges)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(k+1) {
			t.Fatalf("batch %d got lsn %d, want %d", k, lsn, k+1)
		}
		want[lsn] = edges
	}
	if s := l.Stats(); s.AppendedLSN != 20 || s.DurableLSN != 20 {
		t.Fatalf("stats %+v, want appended=durable=20", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collectReplay(t, nil, dir, 0)
	if st.Tail != "" || st.Diverged {
		t.Fatalf("clean log replayed dirty: %+v", st)
	}
	if st.LastLSN != 20 || st.Records != 20 {
		t.Fatalf("replay stats %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for lsn, edges := range want {
		g := got[lsn]
		if len(g) != len(edges) {
			t.Fatalf("lsn %d: %d edges, want %d", lsn, len(g), len(edges))
		}
		for i := range edges {
			if g[i] != edges[i] {
				t.Fatalf("lsn %d edge %d: %v, want %v", lsn, i, g[i], edges[i])
			}
		}
	}
}

func TestReplayWatermarkSkips(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if _, err := l.Append(testBatch(k, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	got, st := collectReplay(t, nil, dir, 6)
	if st.Diverged {
		t.Fatalf("diverged: %s", st.Divergence)
	}
	if st.Records != 4 || st.Skipped != 6 {
		t.Fatalf("records=%d skipped=%d, want 4/6", st.Records, st.Skipped)
	}
	for lsn := LSN(1); lsn <= 6; lsn++ {
		if _, ok := got[lsn]; ok {
			t.Fatalf("lsn %d below watermark was applied", lsn)
		}
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of records.
	l, _, err := Open(dir, 0, nil, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if _, err := l.Append(testBatch(k, 4)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected many segments at 128-byte rotation, got %d", len(segs))
	}
	if got := l.Stats().Segments; got != int64(len(segs)) {
		t.Fatalf("Stats().Segments=%d, on disk %d", got, len(segs))
	}

	// Truncating through LSN 17 must keep every record > 17 replayable.
	removed, err := l.TruncateThrough(17)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateThrough removed nothing")
	}
	l.Close()
	got, st := collectReplay(t, nil, dir, 17)
	if st.Diverged {
		t.Fatalf("diverged after truncation: %s", st.Divergence)
	}
	for lsn := LSN(18); lsn <= 30; lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("lsn %d lost by truncation", lsn)
		}
	}

	// A replay from an older watermark now sees a front gap: diverged.
	_, st = collectReplay(t, nil, dir, 5)
	if !st.Diverged {
		t.Fatal("front gap past the watermark not flagged as divergence")
	}
}

func TestReopenAppendsInPlace(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := l.Append(testBatch(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, st, err := Open(dir, 0, func(LSN, []graph.Edge) error { return nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Tail != "" {
		t.Fatalf("reopen replay %+v", st)
	}
	lsn, err := l2.Append(testBatch(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("post-reopen lsn %d, want 6", lsn)
	}
	l2.Close()
	segs, _ := listSegments(OSFS, dir)
	if len(segs) != 1 {
		t.Fatalf("reopen split segments: %d", len(segs))
	}
	got, st := collectReplay(t, nil, dir, 0)
	if st.Records != 6 || st.Diverged || st.Tail != "" {
		t.Fatalf("final replay %+v", st)
	}
	if _, ok := got[6]; !ok {
		t.Fatal("appended record lost")
	}
}

func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if _, err := l.Append(testBatch(k, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail mid-record, like a power cut.
	segs, _ := listSegments(OSFS, dir)
	path := segs[0].path
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, st, err := Open(dir, 0, func(LSN, []graph.Edge) error { return nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 {
		t.Fatalf("replayed %d records past a torn 4th, want 3", st.Records)
	}
	if st.Tail == "" {
		t.Fatal("torn tail not reported")
	}
	if st.Diverged {
		t.Fatalf("a torn final tail is a crash, not divergence: %s", st.Divergence)
	}
	// The torn record's LSN is reused: it was never acknowledged.
	lsn, err := l2.Append(testBatch(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-recovery lsn %d, want 4", lsn)
	}
	l2.Close()
	got, st := collectReplay(t, nil, dir, 0)
	if st.Tail != "" || st.Diverged || st.Records != 4 {
		t.Fatalf("post-recovery replay %+v", st)
	}
	if e := got[4]; len(e) != 1 || e[0] != (graph.Edge{U: 700, V: 701}) {
		t.Fatalf("lsn 4 is %v, want the re-appended batch", e)
	}
}

func TestWatermarkJumpRotates(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := l.Append(testBatch(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// A snapshot claims watermark 10 while the log only reaches 3 — the
	// suffix was lost (e.g. ran with NoSync). Appends must not reuse
	// LSNs at or below the watermark.
	l2, _, err := Open(dir, 10, func(LSN, []graph.Edge) error { return nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l2.Append(testBatch(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-jump lsn %d, want 11", lsn)
	}
	l2.Close()
	// Replaying against the same watermark is clean: the gap is covered.
	_, st := collectReplay(t, nil, dir, 10)
	if st.Diverged || st.Records != 1 {
		t.Fatalf("covered-gap replay %+v", st)
	}
	// Replaying against an older watermark exposes the hole.
	_, st = collectReplay(t, nil, dir, 3)
	if !st.Diverged {
		t.Fatal("uncovered LSN gap not flagged")
	}
	if st.Records != 0 {
		t.Fatalf("post-gap records applied: %d (prefix guarantee broken)", st.Records)
	}
}

func TestMidLogCorruptionDiverges(t *testing.T) {
	// A flipped payload bit, and zeros past the last record: rotation
	// cuts a segment's unwritten space before the next segment exists,
	// so in a non-final segment zeros are damage, not a crash tail.
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }},
		{"unwritten space", func(b []byte) []byte { return append(b, make([]byte, 64)...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, 0, nil, Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 12; k++ {
				if _, err := l.Append(testBatch(k, 3)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			segs, _ := listSegments(OSFS, dir)
			if len(segs) < 3 {
				t.Fatalf("want >=3 segments, got %d", len(segs))
			}
			// Damage the middle segment.
			mid := segs[len(segs)/2].path
			b, err := os.ReadFile(mid)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mid, tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			got, st := collectReplay(t, nil, dir, 0)
			if !st.Diverged {
				t.Fatal("mid-log corruption not flagged as divergence")
			}
			// Prefix guarantee: the applied set is an exact contiguous LSN
			// prefix that stops strictly before the log's end.
			r := LSN(len(got))
			if r >= 12 {
				t.Fatalf("%d records applied despite mid-log corruption", r)
			}
			for lsn := LSN(1); lsn <= r; lsn++ {
				if _, ok := got[lsn]; !ok {
					t.Fatalf("applied set has a hole at lsn %d (not a prefix)", lsn)
				}
			}
		})
	}
}

func TestNoSyncLag(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := l.Append(testBatch(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.AppendedLSN != 8 || s.DurableLSN != 0 {
		t.Fatalf("NoSync stats %+v, want appended=8 durable=0", s)
	}
	if s.AppendedBytes <= s.DurableBytes {
		t.Fatalf("NoSync byte lag missing: %+v", s)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	s = l.Stats()
	if s.DurableLSN != 8 || s.DurableBytes != s.AppendedBytes {
		t.Fatalf("post-Sync stats %+v", s)
	}
	l.Close()
}

// TestDecodeRecordErrors runs one record through scanSegment, as a
// one-record segment image: cut short or bit-flipped, then clean.
func TestDecodeRecordErrors(t *testing.T) {
	seg := appendRecord(appendHeader(nil, 7), 7, testBatch(0, 3))
	scan := func(image []byte) (segScan, []graph.Edge) {
		var edges []graph.Edge
		sc, err := scanSegment(bytes.NewReader(image), func(_ LSN, e []graph.Edge) error {
			edges = e
			return nil
		})
		if err != nil {
			t.Fatalf("scanSegment: %v", err)
		}
		return sc, edges
	}
	if sc, _ := scan(seg[:len(seg)-1]); !errors.Is(sc.stop, ErrTorn) || sc.records != 0 {
		t.Fatalf("truncated payload: %+v, want ErrTorn", sc)
	}
	if sc, _ := scan(seg[:headerLen+5]); !errors.Is(sc.stop, ErrTorn) || sc.records != 0 {
		t.Fatalf("partial frame: %+v, want ErrTorn", sc)
	}
	flipped := append([]byte(nil), seg...)
	flipped[headerLen+10] ^= 1
	if sc, _ := scan(flipped); !errors.Is(sc.stop, ErrCorrupt) || sc.records != 0 {
		t.Fatalf("bit flip: %+v, want ErrCorrupt", sc)
	}
	sc, edges := scan(seg)
	if sc.stop != nil || sc.lastLSN != 7 || len(edges) != 3 || sc.validBytes != int64(len(seg)) {
		t.Fatalf("clean decode: %+v edges=%d", sc, len(edges))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testBatch(0, 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, lsn := range []LSN{1, 0xdeadbeef, 1 << 60} {
		name := segmentName(lsn)
		got, ok := parseSegmentName(name)
		if !ok || got != lsn {
			t.Fatalf("%q → %d,%v want %d", name, got, ok, lsn)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-00.seg", "x", "wal-000000000000000g.seg", filepath.Base("wal-0000000000000001.tmp")} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("%q parsed as a segment", bad)
		}
	}
}

var errInjected = errors.New("injected fault")

// faultFS is the real filesystem with one-shot faults: when armed, the
// next segment write writes half its bytes and fails (a torn write), or
// the next fsync fails. Either fault disarms itself, so the filesystem
// works again right after it.
type faultFS struct {
	FS
	tearNextWrite, failNextSync bool
}

func (fs *faultFS) Create(name string) (File, error) {
	f, err := fs.FS.Create(name)
	return faultFile{f, fs}, err
}

func (fs *faultFS) OpenAppend(name string, size int64) (File, error) {
	f, err := fs.FS.OpenAppend(name, size)
	return faultFile{f, fs}, err
}

type faultFile struct {
	File
	fs *faultFS
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.fs.tearNextWrite {
		f.fs.tearNextWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if f.fs.failNextSync {
		f.fs.failNextSync = false
		return errInjected
	}
	return f.File.Sync()
}

// TestAppendFailStops: after a torn write or a failed fsync the log is
// stopped. The failed record is cut out of the segment, every later
// Append returns the first error without touching the files (although
// the filesystem works again), and a reopen replays exactly the records
// whose Append succeeded.
func TestAppendFailStops(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*faultFS)
	}{
		{"torn write", func(fs *faultFS) { fs.tearNextWrite = true }},
		{"failed fsync", func(fs *faultFS) { fs.failNextSync = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &faultFS{FS: OSFS}
			l, _, err := Open(dir, 0, nil, Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(testBatch(1, 3)); err != nil {
				t.Fatal(err)
			}
			tc.arm(fs)
			if _, err := l.Append(testBatch(2, 3)); !errors.Is(err, errInjected) {
				t.Fatalf("faulted append: err %v, want the injected fault", err)
			}
			segs, err := listSegments(OSFS, dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments %v, err %v", segs, err)
			}
			image, err := os.ReadFile(segs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			for k := 3; k <= 4; k++ {
				if lsn, err := l.Append(testBatch(k, 3)); !errors.Is(err, errInjected) {
					t.Fatalf("append %d after the fault: lsn %d err %v, want the first error", k, lsn, err)
				}
			}
			if !errors.Is(l.Err(), errInjected) {
				t.Fatalf("Err() = %v, want the injected fault", l.Err())
			}
			if s := l.Stats(); s.AppendedLSN != 1 || s.DurableLSN != 1 {
				t.Fatalf("stats %+v, want appended=durable=1", s)
			}
			if after, err := os.ReadFile(segs[0].path); err != nil || string(after) != string(image) {
				t.Fatalf("a stopped log changed its segment (%d → %d bytes, err %v)", len(image), len(after), err)
			}
			if err := l.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close of a stopped log: %v, want its failure", err)
			}

			got, st := collectReplay(t, nil, dir, 0)
			if st.Records != 1 || st.Tail != "" || st.Diverged {
				t.Fatalf("replay after the fault %+v, want exactly the one acked record", st)
			}
			if len(got[1]) != 3 {
				t.Fatalf("acked record 1 replayed as %v", got[1])
			}
		})
	}
}

// sizeFS is the real filesystem with every segment write and resize
// checked against the file's size on disk: changes counts the ones that
// changed it.
type sizeFS struct {
	FS
	changes int
}

func (fs *sizeFS) Create(name string) (File, error) {
	f, err := fs.FS.Create(name)
	return &sizeFile{File: f, fs: fs, name: name}, err
}

func (fs *sizeFS) OpenAppend(name string, size int64) (File, error) {
	f, err := fs.FS.OpenAppend(name, size)
	return &sizeFile{File: f, fs: fs, name: name, size: size}, err
}

type sizeFile struct {
	File
	fs   *sizeFS
	name string
	size int64
}

func (f *sizeFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.observe()
	return n, err
}

func (f *sizeFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	f.observe()
	return err
}

func (f *sizeFile) observe() {
	if fi, err := os.Stat(f.name); err == nil && fi.Size() != f.size {
		f.size = fi.Size()
		f.fs.changes++
	}
}

// TestSegmentGrowsAheadOfRecords pins the grow: appends change the
// active segment's size once per growStep, not once per record, so
// their fsyncs commit no new file size; Close cuts the unwritten space;
// and a crash image taken before Close, which ends in that space,
// recovers every record and appends the next LSN in place.
func TestSegmentGrowsAheadOfRecords(t *testing.T) {
	const appends, edges = 2000, 8
	dir := t.TempDir()
	fs := &sizeFS{FS: OSFS}
	l, _, err := Open(dir, 0, nil, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < appends; k++ {
		if _, err := l.Append(testBatch(k, edges)); err != nil {
			t.Fatal(err)
		}
	}
	written := int64(headerLen) + appends*recordSize(edges)
	if limit := int((written+growStep-1)/growStep) + 1; fs.changes > limit {
		t.Fatalf("%d appends changed the segment's size %d times, want at most %d", appends, fs.changes, limit)
	}
	segs, err := listSegments(OSFS, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	crash := t.TempDir()
	image, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(image)) <= written {
		t.Fatalf("segment is %d bytes before Close, want unwritten space past its %d", len(image), written)
	}
	if err := os.WriteFile(filepath.Join(crash, filepath.Base(segs[0].path)), image, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(segs[0].path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != written {
		t.Fatalf("after Close the segment is %d bytes, want header plus records, %d", fi.Size(), written)
	}
	if _, st := collectReplay(t, nil, dir, 0); st.Tail != "" || st.Records != appends {
		t.Fatalf("clean close replayed %+v", st)
	}

	l2, st, err := Open(crash, 0, func(LSN, []graph.Edge) error { return nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != appends || st.Diverged || st.TailValidBytes != written {
		t.Fatalf("crash image replayed %+v, want %d records in %d bytes", st, appends, written)
	}
	if want := fmt.Sprintf("%v after lsn %d", errUnwritten, appends); st.Tail != want {
		t.Fatalf("crash image tail %q, want %q", st.Tail, want)
	}
	lsn, err := l2.Append(testBatch(appends, edges))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != appends+1 {
		t.Fatalf("append after recovery got lsn %d, want %d", lsn, appends+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, st := collectReplay(t, nil, crash, 0); st.Tail != "" || st.Diverged || st.Records != appends+1 {
		t.Fatalf("recovered log replayed %+v", st)
	}
}

// BenchmarkAppend times one fsynced Append of an 8-edge batch on the
// real filesystem under the test's temporary directory. The
// sub-benchmark is named after that filesystem: on tmpfs an fsync costs
// nothing, so the number means little without it.
//
//	go test -run '^$' -bench Append ./internal/wal
func BenchmarkAppend(b *testing.B) {
	b.Run(filesystem(b.TempDir()), func(b *testing.B) {
		l, _, err := Open(b.TempDir(), 0, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		batch := testBatch(1, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/append")
	})
}

// filesystem names the type of the filesystem dir is on: the longest
// mount point in /proc/self/mounts that holds it, or "unknown".
func filesystem(dir string) string {
	if d, err := filepath.EvalSymlinks(dir); err == nil {
		dir = d
	}
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	fstype, longest := "unknown", -1
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || len(f[1]) <= longest {
			continue
		}
		if dir == f[1] || strings.HasPrefix(dir, strings.TrimSuffix(f[1], "/")+"/") {
			fstype, longest = f[2], len(f[1])
		}
	}
	return fstype
}
