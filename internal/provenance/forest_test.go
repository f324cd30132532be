package provenance

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
)

// recorder is a Forest or its ghost view.
type recorder interface {
	OnMerge(u, v graph.V, lsn uint64)
}

// addEdge streams {u, v} into inc and, when it merged two trees,
// records it through r, the way a caller of core.Incremental records
// provenance.
func addEdge(inc *core.Incremental, r recorder, u, v graph.V, lsn uint64) bool {
	if !inc.AddEdge(u, v) {
		return false
	}
	r.OnMerge(u, v, lsn)
	return true
}

// checkPath verifies hops form a contiguous u→v path whose every hop is
// an edge of the allowed multigraph (normalized endpoint pairs).
func checkPath(t *testing.T, u, v graph.V, hops []Hop, allowed map[[2]graph.V]bool) {
	t.Helper()
	at := u
	for i, h := range hops {
		if h.U != at {
			t.Fatalf("hop %d starts at %d, path is at %d", i, h.U, at)
		}
		key := [2]graph.V{min(h.U, h.V), max(h.U, h.V)}
		if !allowed[key] {
			t.Fatalf("hop %d edge {%d,%d} is not an input edge", i, h.U, h.V)
		}
		at = h.V
	}
	if at != v {
		t.Fatalf("path ends at %d, want %d", at, v)
	}
}

// TestForestExplainPath: serial recording on a path graph yields exact
// witness paths with hop-level LSN stamps.
func TestForestExplainPath(t *testing.T) {
	const n = 16
	f := NewForest(n)
	inc := core.NewIncremental(n)
	allowed := map[[2]graph.V]bool{}
	for i := 0; i < n-1; i++ {
		u, v := graph.V(i), graph.V(i+1)
		if !addEdge(inc, f, u, v, uint64(100+i)) {
			t.Fatalf("edge {%d,%d} did not merge", u, v)
		}
		allowed[[2]graph.V{u, v}] = true
	}
	hops, ok := f.Explain(0, n-1)
	if !ok {
		t.Fatal("no witness for connected endpoints")
	}
	if len(hops) != n-1 {
		t.Fatalf("witness has %d hops on a %d-vertex path, want %d", len(hops), n, n-1)
	}
	checkPath(t, 0, n-1, hops, allowed)
	for _, h := range hops {
		if h.LSN < 100 || h.LSN >= 100+n {
			t.Fatalf("hop {%d,%d} carries lsn %d, outside the streamed range", h.U, h.V, h.LSN)
		}
	}
	// Disconnected pair and self-query.
	if _, ok := f.Explain(0, 0); !ok {
		t.Fatal("self-query must report connected")
	}
	f2 := NewForest(4)
	if _, ok := f2.Explain(0, 3); ok {
		t.Fatal("empty forest claims a witness")
	}
}

// TestForestDuplicateEdgesDropOnce: only merging edges become tree
// edges; a duplicate that performs no CAS is never recorded (AddEdge
// reports only successful CASes), and a defensive same-tree
// record is counted as dropped, not inserted.
func TestForestDuplicateEdgesDropOnce(t *testing.T) {
	f := NewForest(4)
	inc := core.NewIncremental(4)
	addEdge(inc, f, 0, 1, 0)
	addEdge(inc, f, 0, 1, 0) // no merge, no record
	addEdge(inc, f, 2, 3, 0)
	addEdge(inc, f, 1, 3, 0)
	st := f.StatsNow()
	if st.Records != 3 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want 3 records 0 dropped", st)
	}
	// Defensive path: a same-tree record is dropped.
	f.record(0, 3, 0, false)
	if st := f.StatsNow(); st.Records != 3 || st.Dropped != 1 {
		t.Fatalf("stats %+v after cycle record, want 3 records 1 dropped", st)
	}
}

// TestForestHistoryTimeline: History returns the component's merges in
// ordinal order with pre-merge sizes that accrete consistently.
func TestForestHistoryTimeline(t *testing.T) {
	f := NewForest(8)
	inc := core.NewIncremental(8)
	addEdge(inc, f, 0, 1, 1) // {0,1}
	addEdge(inc, f, 2, 3, 2) // {2,3}
	addEdge(inc, f, 1, 2, 3) // {0,1,2,3}
	addEdge(inc, f, 6, 7, 4) // other component
	recs := f.History(0)
	if len(recs) != 3 {
		t.Fatalf("history has %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if i > 0 && r.Ordinal <= recs[i-1].Ordinal {
			t.Fatalf("history out of ordinal order: %+v", recs)
		}
	}
	last := recs[2]
	if last.WinnerSize+last.LoserSize != 4 {
		t.Fatalf("final merge pre-sizes %d+%d, want total 4", last.WinnerSize, last.LoserSize)
	}
	if last.Winner != 0 {
		t.Fatalf("final merge winner %d, want component min 0", last.Winner)
	}
	if got := f.History(7); len(got) != 1 {
		t.Fatalf("other component history %+v, want exactly its own merge", got)
	}
}

// TestForestConcurrentSoundness is the live-writer property: with
// concurrent goroutines streaming random edges into core.Incremental
// and recording each merge, every Explain answered mid-stream must be sound (a genuine contiguous
// path of streamed edges), and after quiescence Explain must agree
// exactly with Connected. Run under -race via the race matrix.
func TestForestConcurrentSoundness(t *testing.T) {
	const n = 512
	const writers = 4
	f := NewForest(n)
	inc := core.NewIncremental(n)

	var mu sync.Mutex
	allowed := map[[2]graph.V]bool{}
	note := func(u, v graph.V) {
		mu.Lock()
		allowed[[2]graph.V{min(u, v), max(u, v)}] = true
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			for i := 0; i < 2000; i++ {
				u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
				note(u, v) // before the insert: sound even if Explain races
				addEdge(inc, f, u, v, uint64(w*2000+i+1))
			}
		}(w)
	}
	// Live reader: witnesses produced mid-stream must already be valid
	// paths of already-noted edges.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if hops, ok := f.Explain(u, v); ok {
				mu.Lock()
				snapshot := make(map[[2]graph.V]bool, len(allowed))
				for k := range allowed {
					snapshot[k] = true
				}
				mu.Unlock()
				checkPath(t, u, v, hops, snapshot)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	// Quiesced: path exists ⟺ connected, for every sampled pair.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		hops, ok := f.Explain(u, v)
		conn := inc.Connected(u, v)
		if ok != conn {
			t.Fatalf("Explain(%d,%d)=%v disagrees with Connected=%v after quiescence", u, v, ok, conn)
		}
		if ok {
			checkPath(t, u, v, hops, allowed)
		}
	}
	st := f.StatsNow()
	if int64(st.Records) != int64(n)-int64(inc.NumComponents()) {
		t.Fatalf("forest has %d records for %d components over %d vertices (want n-C)",
			st.Records, inc.NumComponents(), n)
	}
	if st.Dropped != 0 {
		t.Fatalf("%d records dropped: concurrent CAS edges formed a cycle", st.Dropped)
	}
}

// TestForestDumpCanonicalDeterministic: two forests fed the identical
// serial record sequence dump byte-identically in canonical mode — the
// property the WAL-replay golden test leans on.
func TestForestDumpCanonicalDeterministic(t *testing.T) {
	build := func() *Forest {
		f := NewForest(32)
		inc := core.NewIncremental(32)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 100; i++ {
			addEdge(inc, f, graph.V(rng.Intn(32)), graph.V(rng.Intn(32)), uint64(i+1))
		}
		return f
	}
	a, b := build().Dump(true), build().Dump(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical dumps differ:\n%s\n---\n%s", a, b)
	}
}

// TestGhostRecorderTags: merges recorded through the ghost view carry
// the ghost flag and the shard identity on both hops and records.
func TestGhostRecorderTags(t *testing.T) {
	f := NewForest(4)
	f.SetShard(2)
	inc := core.NewIncremental(4)
	addEdge(inc, f, 0, 1, 0)                 // real
	addEdge(inc, f.GhostRecorder(), 1, 2, 0) // ghost
	hops, ok := f.Explain(0, 2)
	if !ok || len(hops) != 2 {
		t.Fatalf("explain 0-2: ok=%v hops=%v", ok, hops)
	}
	ghosts := 0
	for _, h := range hops {
		if h.Shard != 2 {
			t.Fatalf("hop %+v missing shard tag", h)
		}
		if h.Ghost {
			ghosts++
		}
	}
	if ghosts != 1 {
		t.Fatalf("%d ghost hops, want exactly the label edge", ghosts)
	}
}

// TestRecordMergesEdgeOrder: RecordMerges records an ApplyBatch merge
// list (which comes back in descending loser order) in edge order,
// each record stamped with the batch's LSN.
func TestRecordMergesEdgeOrder(t *testing.T) {
	edges := []graph.Edge{{U: 2, V: 3}, {U: 0, V: 1}, {U: 1, V: 3}}
	inc := core.NewIncremental(4)
	merges := inc.ApplyBatch(edges, 1)
	f := NewForest(4)
	f.RecordMerges(edges, merges, 9)
	recs := f.History(0)
	if len(recs) != len(edges) {
		t.Fatalf("%d records, want %d", len(recs), len(edges))
	}
	for i, r := range recs {
		if r.U != edges[i].U || r.V != edges[i].V || r.LSN != 9 {
			t.Fatalf("record %d = {%d,%d} lsn %d, want edge %v lsn 9", i, r.U, r.V, r.LSN, edges[i])
		}
	}
}
