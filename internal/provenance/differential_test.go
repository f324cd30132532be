package provenance

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
)

// model is the reference a Forest is checked against: a naive labeling
// (each vertex holds its component's min id, relabeled on merge) beside
// the full record log. History's reference is the full scan of that
// log: the records whose U is in v's component, in ordinal order.
type model struct {
	lab     []graph.V   // component min id per vertex
	members [][]graph.V // at each component min id, its vertices
	records []MergeRecord
	byEdge  map[[2]graph.V]MergeRecord // recorded edge {min, max} → its record
	shard   int
	dropped int64
}

func newModel(n, shard int) *model {
	m := &model{lab: make([]graph.V, n), members: make([][]graph.V, n), byEdge: map[[2]graph.V]MergeRecord{}, shard: shard}
	for v := range m.lab {
		m.lab[v] = graph.V(v)
		m.members[v] = []graph.V{graph.V(v)}
	}
	return m
}

// merge appends the record the forest must make for the merging edge
// {u, v}: Winner/Loser are the two components' min ids in order,
// WinnerSize/LoserSize their sizes, larger first.
func (m *model) merge(t testing.TB, u, v graph.V, lsn uint64, ghost bool) {
	t.Helper()
	lu, lv := m.lab[u], m.lab[v]
	if lu == lv {
		t.Fatalf("recorded edge {%d,%d} joins no two components", u, v)
	}
	su, sv := len(m.members[lu]), len(m.members[lv])
	w, l := min(lu, lv), max(lu, lv)
	r := MergeRecord{
		Ordinal: uint64(len(m.records)) + 1, LSN: lsn, U: u, V: v,
		Winner: w, Loser: l, WinnerSize: max(su, sv), LoserSize: min(su, sv),
		Ghost: ghost, Shard: m.shard,
	}
	m.records = append(m.records, r)
	m.byEdge[[2]graph.V{min(u, v), max(u, v)}] = r
	for _, x := range m.members[l] {
		m.lab[x] = w
	}
	m.members[w] = append(m.members[w], m.members[l]...)
	m.members[l] = nil
}

// fullScan is History as a scan of every record.
func (m *model) fullScan(v graph.V) []MergeRecord {
	var out []MergeRecord
	for _, r := range m.records {
		if m.lab[r.U] == m.lab[v] {
			out = append(out, r)
		}
	}
	return out
}

// runStream decodes data into a merge stream over at most 64 vertices,
// feeds it to a Forest and to the model, and checks that the two agree.
// The first two bytes pick the vertex count and the shard; then each op
// byte, with its operands, is one of:
//
//	op%4 == 0: OnMerge of an AddEdge that merged
//	op%4 == 1: the same through the GhostRecorder
//	op%4 == 2: a RecordMerges batch of 1–8 edges, applied at parallelism 1
//	op%4 == 3: a same-tree record (ghost with bit 0x40), which the forest must drop
//
// Bit 0x80 of the op records with LSN 0 (no log) instead of the op's
// position.
func runStream(t testing.TB, data []byte) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next()%64)
	shard := int(next()%4) - 1
	vtx := func() graph.V { return graph.V(int(next()) % n) }

	f := NewForest(n)
	f.SetShard(shard)
	ghost := f.GhostRecorder()
	inc := core.NewIncremental(n)
	m := newModel(n, shard)
	for pos := uint64(1); len(data) > 0; pos++ {
		op := next()
		lsn := pos
		if op&0x80 != 0 {
			lsn = 0
		}
		switch op % 4 {
		case 0, 1:
			u, v := vtx(), vtx()
			if !inc.AddEdge(u, v) {
				continue
			}
			if op%4 == 0 {
				f.OnMerge(u, v, lsn)
			} else {
				ghost.OnMerge(u, v, lsn)
			}
			m.merge(t, u, v, lsn, op%4 == 1)
		case 2:
			edges := make([]graph.Edge, 1+int(next()%8))
			for i := range edges {
				edges[i] = graph.Edge{U: vtx(), V: vtx()}
			}
			merges := inc.ApplyBatch(edges, 1)
			f.RecordMerges(edges, merges, lsn) // sorts merges into edge order
			for _, mg := range merges {
				e := edges[mg.Edge]
				m.merge(t, e.U, e.V, lsn, false)
			}
		case 3:
			u := vtx()
			f.record(u, m.lab[u], lsn, op&0x40 != 0)
			m.dropped++
		}
	}
	checkForest(t, f, m)
}

// checkForest compares every query answer of f with the model.
func checkForest(t testing.TB, f *Forest, m *model) {
	t.Helper()
	n := len(m.lab)
	ghosts := 0
	for _, r := range m.records {
		if r.Ghost {
			ghosts++
		}
	}
	st := f.StatsNow()
	if st.Vertices != n || st.Records != len(m.records) || st.Ghost != ghosts ||
		st.Trees != n-len(m.records) || st.Dropped != m.dropped {
		t.Fatalf("stats %+v, want %d vertices, %d records (%d ghost), %d dropped",
			st, n, len(m.records), ghosts, m.dropped)
	}

	var dump struct {
		Records []MergeRecord `json:"records"`
		Edges   []struct {
			Child, Parent graph.V
			LSN, Ordinal  uint64
			Ghost         bool
		} `json:"edges"`
	}
	if err := json.Unmarshal(f.Dump(true), &dump); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dump.Records, m.records) {
		t.Fatalf("dumped records differ from the model:\n got %+v\nwant %+v", dump.Records, m.records)
	}
	if len(dump.Edges) != len(m.records) {
		t.Fatalf("dump has %d tree edges for %d records", len(dump.Edges), len(m.records))
	}
	for _, e := range dump.Edges {
		r, ok := m.byEdge[[2]graph.V{min(e.Child, e.Parent), max(e.Child, e.Parent)}]
		if !ok || r.Ordinal != e.Ordinal || r.LSN != e.LSN || r.Ghost != e.Ghost {
			t.Fatalf("tree edge %+v does not match its record %+v (recorded %v)", e, r, ok)
		}
	}

	for v := range n {
		got, want := f.History(graph.V(v)), m.fullScan(graph.V(v))
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("History(%d) = %+v, full scan = %+v", v, got, want)
		}
	}
	if got := f.History(graph.V(n)); got != nil {
		t.Fatalf("History of out-of-range vertex %d = %+v, want nil", n, got)
	}

	for u := range n {
		for v := range n {
			checkExplain(t, f, m, graph.V(u), graph.V(v))
		}
	}
}

// checkExplain checks one Explain answer: a witness exactly when the
// model connects u and v, contiguous from u to v, every hop a recorded
// edge carrying that record's ordinal, LSN, ghost flag and shard.
func checkExplain(t testing.TB, f *Forest, m *model, u, v graph.V) {
	t.Helper()
	hops, ok := f.Explain(u, v)
	if ok != (m.lab[u] == m.lab[v]) {
		t.Fatalf("Explain(%d,%d) ok=%v, model connected=%v", u, v, ok, m.lab[u] == m.lab[v])
	}
	if !ok {
		return
	}
	if hops == nil {
		t.Fatalf("Explain(%d,%d) = nil path with ok", u, v)
	}
	at := u
	for i, h := range hops {
		r, rec := m.byEdge[[2]graph.V{min(h.U, h.V), max(h.U, h.V)}]
		if h.U != at || !rec {
			t.Fatalf("Explain(%d,%d) hop %d %+v: path at %d, recorded edge %v", u, v, i, h, at, rec)
		}
		if h.Ordinal != r.Ordinal || h.LSN != r.LSN || h.Ghost != r.Ghost || h.Shard != r.Shard {
			t.Fatalf("Explain(%d,%d) hop %d %+v does not carry its record's stamps %+v", u, v, i, h, r)
		}
		at = h.V
	}
	if at != v {
		t.Fatalf("Explain(%d,%d) path ends at %d", u, v, at)
	}
}

// randomStream returns a seeded runStream input of 64–575 bytes.
func randomStream(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64+rng.Intn(512))
	rng.Read(data)
	return data
}

// TestForestDifferential runs seeded random streams through runStream:
// History equals the full record scan for every vertex, and every
// Explain path is a contiguous chain of correctly stamped recorded
// edges.
func TestForestDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runStream(t, randomStream(seed)) })
	}
}

// FuzzForest is TestForestDifferential over fuzzer-chosen streams.
func FuzzForest(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomStream(seed))
	}
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1, 2, 1, 2, 3, 3, 0})                        // a path, its last edge a ghost, then a drop
	f.Add([]byte{63, 2, 2, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 3, 2, 4, 5, 9}) // one batch with a cycle
	f.Fuzz(func(t *testing.T, data []byte) { runStream(t, data) })
}

// TestForestFootprint pins the forest's layout at 24 B per vertex and
// 40 B per record, and checks that Stats.MemoryBytes matches the heap
// the forest really retains. A field added back to either is a reviewed
// edit here.
func TestForestFootprint(t *testing.T) {
	const n = 1 << 16
	const perVertex, perRecord = 24, 40
	const slack = 64 << 10 // the Forest header, and other allocations between the readings
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	f := NewForest(n)
	fresh := f.StatsNow().MemoryBytes
	if fresh > perVertex*n {
		t.Fatalf("NewForest(%d) holds %d B, %.1f B per vertex; budget %d", n, fresh, float64(fresh)/n, perVertex)
	}
	inc := core.NewIncremental(n)
	incBytes := heap() - base - fresh
	for v := graph.V(1); v < n; v++ {
		addEdge(inc, f, v-1, v, uint64(v))
	}
	st := f.StatsNow()
	if per := float64(st.MemoryBytes-fresh) / float64(cap(f.records)); per > perRecord {
		t.Fatalf("%d records take %d B: %.1f B per record slot; budget %d",
			st.Records, st.MemoryBytes-fresh, per, perRecord)
	}
	live := heap() - base - incBytes
	if d := live - st.MemoryBytes; d < -slack || d > slack {
		t.Fatalf("forest retains %d B of heap, Stats.MemoryBytes reads %d", live, st.MemoryBytes)
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(inc)
}

// historySink keeps BenchmarkForestHistory's calls live.
var historySink []MergeRecord

// BenchmarkForestHistory times History on the query workload's forest:
// 2^20 vertices and 200k merges of uniformly random stream edges. It
// reports ns per History of a random vertex and the forest's bytes per
// vertex.
func BenchmarkForestHistory(b *testing.B) {
	const n, merges = 1 << 20, 200_000
	f := NewForest(n)
	inc := core.NewIncremental(n)
	rng := rand.New(rand.NewSource(1))
	for recorded := 0; recorded < merges; {
		if addEdge(inc, f, graph.V(rng.Intn(n)), graph.V(rng.Intn(n)), uint64(recorded+1)) {
			recorded++
		}
	}
	b.ResetTimer()
	for range b.N {
		historySink = f.History(graph.V(rng.Intn(n)))
	}
	b.ReportMetric(float64(f.StatsNow().MemoryBytes)/n, "B/vertex")
}
