package crashtest

import (
	"fmt"
	"strings"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/testkit"
	"afforest/internal/validate"
	"afforest/internal/wal"
)

// serialDSU is an independent, deliberately-dumb oracle: a serial
// union-find with min-label canonicalization, matching the shape
// core.Incremental.Snapshot produces (π(x) = smallest vertex in x's
// component). canonAt[k] is the partition after the first k batches.
type serialDSU struct {
	p []graph.V
}

func newSerialDSU(n int) *serialDSU {
	p := make([]graph.V, n)
	for i := range p {
		p[i] = graph.V(i)
	}
	return &serialDSU{p: p}
}

func (d *serialDSU) find(x graph.V) graph.V {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *serialDSU) union(u, v graph.V) {
	ru, rv := d.find(u), d.find(v)
	if ru == rv {
		return
	}
	if ru < rv {
		d.p[rv] = ru
	} else {
		d.p[ru] = rv
	}
}

func (d *serialDSU) canon() []graph.V {
	out := make([]graph.V, len(d.p))
	for i := range d.p {
		out[i] = d.find(graph.V(i))
	}
	return out
}

// crashCase bundles one run of the harness: the batches appended, the
// global write offset at which each append returned (the ack point),
// and the oracle partition after each batch prefix.
type crashCase struct {
	n       int
	batches [][]graph.Edge
	ackedAt []int64     // ackedAt[k]: disk bytes when batch k's Append returned
	lsnOf   []wal.LSN   // lsnOf[k]: the LSN batch k received
	canon   [][]graph.V // canon[r]: oracle π after the first r batches
	disk    *Disk
}

// buildCase drives a WAL over the journaling disk with the given edge
// list split into batches, recording ack points and oracle prefixes.
// Small segments force several rotations so cuts land around segment
// headers too.
func buildCase(t *testing.T, n int, edges []graph.Edge, batchSize int, segmentBytes int64) *crashCase {
	t.Helper()
	disk := NewDisk()
	l, st, err := wal.Open("wal", 0, nil, wal.Options{FS: disk, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("fresh disk replayed %d records", st.Records)
	}
	c := &crashCase{n: n, disk: disk}
	oracle := newSerialDSU(n)
	c.canon = append(c.canon, oracle.canon())
	for lo := 0; lo < len(edges); lo += batchSize {
		hi := min(lo+batchSize, len(edges))
		batch := edges[lo:hi]
		lsn, err := l.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		// Write-ahead ordering: Append has fsynced, so the moment it
		// returns the serve layer may ack. The disk's cumulative write
		// offset at this instant is the durability frontier for batch k.
		c.batches = append(c.batches, batch)
		c.ackedAt = append(c.ackedAt, disk.WriteBytes())
		c.lsnOf = append(c.lsnOf, lsn)
		for _, e := range batch {
			oracle.union(graph.V(e.U), graph.V(e.V))
		}
		c.canon = append(c.canon, oracle.canon())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// corpusCase looks a testkit corpus case up by name.
func corpusCase(t *testing.T, name string) testkit.Case {
	t.Helper()
	for _, tc := range testkit.Corpus() {
		if tc.Name == name {
			return tc
		}
	}
	t.Fatalf("corpus case %q not found", name)
	return testkit.Case{}
}

// ackedThrough returns how many batches were acknowledged with their
// bytes entirely at or below cut — the set the crash guarantee promises
// to preserve.
func (c *crashCase) ackedThrough(cut int64) int {
	k := 0
	for k < len(c.ackedAt) && c.ackedAt[k] <= cut {
		k++
	}
	return k
}

// recover replays the crash image at cut into a fresh Incremental and
// returns the replayed-prefix length r (in batches) plus the stats.
func (c *crashCase) recover(t *testing.T, cut int64) (int, []graph.V, wal.ReplayStats) {
	t.Helper()
	img := FromImage(c.disk.Image(cut))
	inc := core.NewIncremental(c.n)
	var last wal.LSN
	st, err := wal.Replay(img, "wal", 0, func(lsn wal.LSN, edges []graph.Edge) error {
		if lsn != last+1 {
			t.Fatalf("cut %d: replay delivered lsn %d after %d", cut, lsn, last)
		}
		last = lsn
		for _, e := range edges {
			inc.AddEdge(graph.V(e.U), graph.V(e.V))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cut %d: replay error: %v", cut, err)
	}
	return int(last), inc.Snapshot(0), st
}

// checkCut asserts the crash-consistency contract at one cut offset:
// the replayed set is an exact batch prefix (enforced inside recover),
// every acked batch is inside it, and the reconstructed π is
// bit-identical to the oracle at that prefix. Pure power cuts never
// count as divergence.
func (c *crashCase) checkCut(t *testing.T, cut int64) {
	t.Helper()
	r, pi, st := c.recover(t, cut)
	acked := c.ackedThrough(cut)
	if r < acked {
		t.Fatalf("cut %d: %d batches acked but only %d replayed — durability broken", cut, acked, r)
	}
	if r > len(c.batches) {
		t.Fatalf("cut %d: replayed %d batches, only %d were written", cut, r, len(c.batches))
	}
	if st.Diverged {
		t.Fatalf("cut %d: pure power cut flagged as divergence: %s", cut, st.Divergence)
	}
	want := c.canon[r]
	for i := range pi {
		if pi[i] != want[i] {
			t.Fatalf("cut %d: replayed %d batches but π[%d]=%d, oracle says %d", cut, r, i, pi[i], want[i])
		}
	}
}

// cutPoints returns the offsets worth crashing at: every ack boundary
// ±1, every byte of the first few batches (covering partial headers,
// partial frames, partial payloads exhaustively at least once), and a
// stride sample across the rest.
func (c *crashCase) cutPoints() []int64 {
	total := c.disk.WriteBytes()
	seen := map[int64]bool{}
	var cuts []int64
	add := func(x int64) {
		if x >= 0 && x <= total && !seen[x] {
			seen[x] = true
			cuts = append(cuts, x)
		}
	}
	add(0)
	add(total)
	for _, a := range c.ackedAt {
		add(a - 1)
		add(a)
		add(a + 1)
	}
	var dense int64 = 200
	if len(c.ackedAt) >= 3 {
		dense = c.ackedAt[2]
	}
	for x := int64(0); x <= dense && x <= total; x++ {
		add(x)
	}
	for x := dense; x < total; x += 7 {
		add(x)
	}
	return cuts
}

// TestCrashConsistency is the property-based differential test behind
// DESIGN.md §15: for a sample of corpus graphs, simulate a power cut at
// every interesting byte offset of the WAL's write stream and prove the
// replayed partition is bit-identical to an independent oracle over the
// durably-acked batch prefix — acked ⇒ replayed, unacked ⇒ cleanly
// ignored, never a mix.
func TestCrashConsistency(t *testing.T) {
	const maxEdges = 1500
	const batchSize = 7
	for _, tc := range testkit.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			g := tc.Build()
			edges := g.Edges()
			if len(edges) > maxEdges {
				edges = edges[:maxEdges]
			}
			if len(edges) == 0 {
				t.Skip("no edges")
			}
			// ~6 records per segment at batchSize 7 forces rotations.
			c := buildCase(t, g.NumVertices(), edges, batchSize, 400)

			// Tie the in-test oracle to the repo's reference oracle at
			// the full prefix (partition-equal; labels are both
			// min-canonical so this also pins the bit-level form).
			full := c.canon[len(c.batches)]
			if len(edges) == len(g.Edges()) {
				if err := validate.SamePartition(full, testkit.Oracle(g)); err != nil {
					t.Fatalf("serial oracle disagrees with testkit oracle: %v", err)
				}
			}

			for _, cut := range c.cutPoints() {
				c.checkCut(t, cut)
			}
		})
	}
}

// TestCrashBitFlip models media corruption on top of the crash model:
// flip one bit inside the acked region of a crash image and replay. The
// scan must stop cleanly (no panic), the replayed set must remain an
// exact prefix strictly shorter than the acked count when the flip
// lands in live record bytes, π must still match the oracle at that
// prefix, and a flip below the final segment must be flagged as
// divergence.
func TestCrashBitFlip(t *testing.T) {
	g := corpusCase(t, "path-1024").Build()
	edges := g.Edges()
	if len(edges) > 600 {
		edges = edges[:600]
	}
	c := buildCase(t, g.NumVertices(), edges, 7, 400)
	total := c.disk.WriteBytes()
	base := c.disk.Image(total)

	segNames := func(img map[string][]byte) []string {
		names, _ := FromImage(img).ReadDir("wal")
		return names
	}
	segs := segNames(base)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments for mid-log flips, got %d", len(segs))
	}

	flipAt := []struct {
		name string
		file string
		bit  int64
	}{
		{"first-segment-payload", "wal/" + segs[0], int64(len(base["wal/"+segs[0]])) - 2},
		{"first-segment-header", "wal/" + segs[0], 3},
		{"mid-segment", "wal/" + segs[len(segs)/2], int64(len(base["wal/"+segs[len(segs)/2]])) / 2},
		{"final-segment", "wal/" + segs[len(segs)-1], int64(len(base["wal/"+segs[len(segs)-1]])) / 2},
	}
	for _, fl := range flipAt {
		t.Run(fl.name, func(t *testing.T) {
			img := map[string][]byte{}
			for k, v := range base {
				img[k] = append([]byte(nil), v...)
			}
			img[fl.file][fl.bit] ^= 1 << 3

			inc := core.NewIncremental(c.n)
			var visited []wal.LSN
			st, err := wal.Replay(FromImage(img), "wal", 0, func(lsn wal.LSN, e []graph.Edge) error {
				visited = append(visited, lsn)
				for _, ed := range e {
					inc.AddEdge(graph.V(ed.U), graph.V(ed.V))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("replay error: %v", err)
			}
			r := len(visited)
			for i, lsn := range visited {
				if lsn != wal.LSN(i+1) {
					t.Fatalf("replay not a prefix: position %d has lsn %d", i, lsn)
				}
			}
			if r >= len(c.batches) {
				t.Fatalf("flip in live bytes did not shorten the replay (r=%d of %d)", r, len(c.batches))
			}
			final := fl.file == "wal/"+segs[len(segs)-1]
			if !final && !st.Diverged {
				t.Fatal("non-final-segment damage not flagged as divergence")
			}
			if final && st.Diverged {
				t.Fatalf("final-segment damage misflagged as divergence: %s", st.Divergence)
			}
			pi := inc.Snapshot(0)
			want := c.canon[r]
			for i := range pi {
				if pi[i] != want[i] {
					t.Fatalf("π[%d]=%d after flip, oracle at prefix %d says %d", i, pi[i], r, want[i])
				}
			}
		})
	}
}

// TestImageDeterminism pins the harness itself: the same cut must
// always produce the same image, and images are monotone — a later cut
// never shrinks a file below an earlier cut's content.
func TestImageDeterminism(t *testing.T) {
	g := corpusCase(t, "path-1024").Build()
	edges := g.Edges()
	if len(edges) > 200 {
		edges = edges[:200]
	}
	c := buildCase(t, g.NumVertices(), edges, 5, 512)
	total := c.disk.WriteBytes()
	for _, cut := range []int64{0, 1, total / 3, total / 2, total - 1, total} {
		a, b := c.disk.Image(cut), c.disk.Image(cut)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("cut %d: non-deterministic image", cut)
		}
	}
}

// TestImagesCarryUnwrittenSpace pins the harness's model of the grow:
// an image cut at an ack point holds the final segment's zeros past its
// last record, which replay reads as a crash tail naming the LSN it
// follows, and the image after Close holds none.
func TestImagesCarryUnwrittenSpace(t *testing.T) {
	g := corpusCase(t, "path-1024").Build()
	c := buildCase(t, g.NumVertices(), g.Edges()[:140], 7, 400)
	replay := func(cut int64) (map[string][]byte, wal.ReplayStats) {
		img := c.disk.Image(cut)
		st, err := wal.Replay(FromImage(img), "wal", 0, func(wal.LSN, []graph.Edge) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		return img, st
	}
	img, st := replay(c.ackedAt[0])
	seg := img["wal/wal-0000000000000001.seg"]
	if int64(len(seg)) != 400 || st.TailValidBytes >= 400 {
		t.Fatalf("first ack: segment of %d bytes, %d valid, want it grown to 400", len(seg), st.TailValidBytes)
	}
	if !strings.HasSuffix(st.Tail, "unwritten space after lsn 1") || st.Diverged || st.LastLSN != 1 {
		t.Fatalf("first ack: replay %+v, want a tail of unwritten space after lsn 1", st)
	}
	img, st = replay(c.disk.WriteBytes())
	names, _ := FromImage(img).ReadDir("wal")
	if last := img["wal/"+names[len(names)-1]]; st.Tail != "" || int64(len(last)) != st.TailValidBytes {
		t.Fatalf("after Close: final segment %d bytes, %d valid, tail %q", len(last), st.TailValidBytes, st.Tail)
	}
}
