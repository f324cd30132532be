// Package provenance records *why* two vertices are connected: a
// merge forest over the vertex set whose tree edges are exactly the
// input edges that performed successful hook CASes in the concurrent
// union-find (the merges core.Incremental's AddEdge and ApplyBatch
// report to their callers, which record them here). The π array
// itself cannot explain anything — shortcutting destroys history, and
// a root only says "same component", never "through which inputs" —
// but the set of successful-CAS edges is a spanning forest of the
// component structure (the Section IV-A duality behind
// core.SpanningForest), so retaining it, each edge stamped with the
// WAL LSN of the batch that carried it, yields a witness path of real
// input edges between any two connected vertices plus a queryable
// merge timeline per component.
//
// Correctness under concurrency: successful-CAS edges are acyclic as a
// set (each CAS hooks a root that is never a root again, so the full
// edge set is a forest; any subset of a forest is a forest). Record
// serializes insertions under a lock, and because every prefix of any
// interleaving is a subset of the full forest, each recorded edge
// always joins two distinct trees — the structure cannot corrupt no
// matter how concurrent OnMerge calls interleave. Witness paths
// are therefore *sound* at every instant (every hop is a real applied
// input edge); they become *complete* (path exists ⟺ connected) once
// the writers quiesce, since a merge is recorded momentarily after its
// CAS.
package provenance

import (
	"cmp"
	"encoding/json"
	"slices"
	"sync"

	"afforest/internal/core"
	"afforest/internal/graph"
)

// Hop is one edge of a witness path, oriented along the path: hop i's V
// equals hop i+1's U, the first hop's U is the queried source, the last
// hop's V the queried target. Ghost hops appear only in cluster
// deployments: they are exchange-protocol label edges (a shard learning
// "v has label l" links v–l), which certify connectivity learned from
// another shard rather than a client-submitted input edge.
type Hop struct {
	U       graph.V `json:"u"`
	V       graph.V `json:"v"`
	LSN     uint64  `json:"lsn,omitempty"`
	Ordinal uint64  `json:"ordinal"`
	Ghost   bool    `json:"ghost,omitempty"`
	Shard   int     `json:"shard"` // recording shard; -1 outside a cluster
}

// MergeRecord is one component merge as the forest saw it: the causal
// edge, its durable position, and the pre-merge shapes of the two trees
// it joined. Winner/Loser are the min-ids of the larger and smaller
// pre-merge trees' vertex sets under the forest's own linearization
// (Record order) — the same "surviving root" notion the π array uses,
// linearized by ordinal instead of by CAS timing.
type MergeRecord struct {
	Ordinal uint64  `json:"ordinal"`
	LSN     uint64  `json:"lsn,omitempty"`
	U       graph.V `json:"u"`
	V       graph.V `json:"v"`
	Winner  graph.V `json:"winner"`
	Loser   graph.V `json:"loser"`
	// WinnerSize and LoserSize are the pre-merge tree sizes; the merged
	// tree has WinnerSize+LoserSize vertices.
	WinnerSize int  `json:"winner_size"`
	LoserSize  int  `json:"loser_size"`
	Ghost      bool `json:"ghost,omitempty"`
	Shard      int  `json:"shard"` // recording shard; -1 outside a cluster
}

// ann annotates the forest tree edge {x, fparent[x]} with the recording
// metadata (the edge's endpoints are implicit — tree edges ARE input
// edges, so reversal during rerooting just moves the annotation to the
// other endpoint).
type ann struct {
	lsn   uint64
	ord   uint64
	ghost bool
	shard int32
}

// Forest is the concurrent merge forest. One mutex guards everything:
// Record runs under it from every goroutine streaming edges (the
// enabled path's documented cost), Explain/History/Dump are read-side
// queries that also compress the internal DSU, so they take the same
// lock. With provenance off no forest exists and nothing calls into
// this package.
type Forest struct {
	mu sync.Mutex

	fparent []graph.V // forest parent; fparent[v]==v means root
	fedge   []ann     // annotation of edge {v, fparent[v]}

	// Union-by-size DSU over forest trees, with path compression. It
	// decides which side reroots on Record (smaller tree reroots, giving
	// O(n log n) total pointer reversals) and answers same-tree queries.
	dsu  []graph.V
	size []int32
	min  []graph.V // min vertex id per DSU root (Winner/Loser reporting)

	records []MergeRecord
	dropped int64 // defensive: Record calls whose endpoints were already joined

	shard int // stamped on records/hops; -1 single-node
}

// NewForest returns an empty forest over n isolated vertices.
func NewForest(n int) *Forest {
	f := &Forest{
		fparent: make([]graph.V, n),
		fedge:   make([]ann, n),
		dsu:     make([]graph.V, n),
		size:    make([]int32, n),
		min:     make([]graph.V, n),
		shard:   -1,
	}
	for i := range f.fparent {
		f.fparent[i] = graph.V(i)
		f.dsu[i] = graph.V(i)
		f.size[i] = 1
		f.min[i] = graph.V(i)
	}
	return f
}

// SetShard stamps subsequent records with a shard identity (cluster
// deployments). Call before recording begins.
func (f *Forest) SetShard(id int) { f.shard = id }

// NumVertices returns n.
func (f *Forest) NumVertices() int { return len(f.fparent) }

// OnMerge records the causal edge {u, v} of one successful hook CAS: an
// edge whose core.Incremental.AddEdge returned true. lsn is the WAL
// record the edge rode in (0 when there is no log).
func (f *Forest) OnMerge(u, v graph.V, lsn uint64) {
	f.record(u, v, lsn, false)
}

// RecordMerges records the merges one core.Incremental.ApplyBatch call
// returned for edges, stamped with the batch's WAL LSN, in edge order.
// It sorts merges by Edge in place. At parallelism 1 ApplyBatch links in
// edge order, so the recorded sequence depends only on the batch and
// the partition before it: a WAL replay that applies the same batch the
// same way rebuilds the same forest.
func (f *Forest) RecordMerges(edges []graph.Edge, merges []core.Merge, lsn uint64) {
	slices.SortFunc(merges, func(x, y core.Merge) int { return cmp.Compare(x.Edge, y.Edge) })
	for _, m := range merges {
		e := edges[m.Edge]
		f.record(e.U, e.V, lsn, false)
	}
}

// GhostRecorder returns a view recording merges as ghost hops —
// exchange-protocol label edges rather than input edges. The cluster
// shard records ingest/absorb merges through it.
func (f *Forest) GhostRecorder() *GhostView { return &GhostView{f: f} }

// GhostView tags every merge it records as a ghost edge.
type GhostView struct{ f *Forest }

// OnMerge records the label edge {u, v} of one merge as a ghost hop.
func (g *GhostView) OnMerge(u, v graph.V, lsn uint64) {
	g.f.record(u, v, lsn, true)
}

// find resolves v's DSU root with path compression. Caller holds mu.
func (f *Forest) find(v graph.V) graph.V {
	root := v
	for f.dsu[root] != root {
		root = f.dsu[root]
	}
	for f.dsu[v] != root {
		f.dsu[v], v = root, f.dsu[v]
	}
	return root
}

// record inserts one merge edge. The smaller forest tree is rerooted at
// its endpoint of the edge and attached under the other endpoint; the
// tree edge {u→v or v→u} carries the annotation. See the package
// comment for why ru == rv cannot occur for genuine CAS edges.
func (f *Forest) record(u, v graph.V, lsn uint64, ghost bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ru, rv := f.find(u), f.find(v)
	if ru == rv {
		f.dropped++
		return
	}
	// Orient: child (rerooted, smaller tree) endpoint a attaches under b.
	a, b, ra, rb := u, v, ru, rv
	if f.size[ru] > f.size[rv] {
		a, b, ra, rb = v, u, rv, ru
	}
	ord := uint64(len(f.records)) + 1
	smallMin, largeMin := f.min[ra], f.min[rb]
	winner, loser := largeMin, smallMin
	if smallMin < largeMin {
		winner, loser = smallMin, largeMin
	}
	f.records = append(f.records, MergeRecord{
		Ordinal: ord, LSN: lsn, U: u, V: v,
		Winner: winner, Loser: loser,
		WinnerSize: int(f.size[rb]), LoserSize: int(f.size[ra]),
		Ghost: ghost, Shard: f.shard,
	})
	f.reroot(a)
	// a is now its tree's root; hang it (and with it the whole smaller
	// tree) under b, annotated with the causal edge {a, b} = {u, v}.
	f.fparent[a] = b
	f.fedge[a] = ann{lsn: lsn, ord: ord, ghost: ghost, shard: int32(f.shard)}
	f.dsu[ra] = rb
	f.size[rb] += f.size[ra]
	if smallMin < f.min[rb] {
		f.min[rb] = smallMin
	}
}

// reroot reverses the fparent chain from a to its forest root, making a
// the root of its tree: the path is collected, then each edge flipped —
// path[i] --ann@path[i]--> path[i+1] becomes path[i+1] --same ann-->
// path[i] (a tree edge IS the input edge between its endpoints, so the
// annotation just moves to the other endpoint). Rerooting always the
// smaller tree bounds total reversal work at O(n log n) by the standard
// union-by-size argument.
func (f *Forest) reroot(a graph.V) {
	var path []graph.V
	for x := a; ; x = f.fparent[x] {
		path = append(path, x)
		if f.fparent[x] == x {
			break
		}
	}
	for i := len(path) - 2; i >= 0; i-- {
		child, parent := path[i], path[i+1]
		f.fparent[parent] = child
		f.fedge[parent] = f.fedge[child]
	}
	f.fparent[a] = a
	f.fedge[a] = ann{}
}

// Explain returns a witness path of recorded edges from u to v, or
// (nil, false) when the forest holds no connection between them (they
// are in different trees — either genuinely disconnected, or connected
// only through history recorded before provenance was enabled). A
// (non-nil-capable) empty path with ok=true means u == v.
func (f *Forest) Explain(u, v graph.V) (hops []Hop, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(u) >= len(f.fparent) || int(v) >= len(f.fparent) {
		return nil, false
	}
	if u == v {
		return []Hop{}, true
	}
	if f.find(u) != f.find(v) {
		return nil, false
	}
	// Root paths of both endpoints (vertex sequences; edge i connects
	// seq[i] and seq[i+1], annotated at seq[i]).
	up := f.rootPath(u)
	vp := f.rootPath(v)
	// Find the lowest common ancestor: deepest suffix match.
	iu, iv := len(up)-1, len(vp)-1
	for iu > 0 && iv > 0 && up[iu-1] == vp[iv-1] {
		iu--
		iv--
	}
	// u → lca: forward along up[0..iu].
	for i := 0; i < iu; i++ {
		x := up[i]
		a := f.fedge[x]
		hops = append(hops, Hop{U: x, V: up[i+1], LSN: a.lsn, Ordinal: a.ord, Ghost: a.ghost, Shard: int(a.shard)})
	}
	// lca → v: backward along vp[0..iv].
	for i := iv; i > 0; i-- {
		x := vp[i-1]
		a := f.fedge[x]
		hops = append(hops, Hop{U: vp[i], V: x, LSN: a.lsn, Ordinal: a.ord, Ghost: a.ghost, Shard: int(a.shard)})
	}
	return hops, true
}

// rootPath returns the vertex sequence from v to its forest root
// inclusive. Caller holds mu.
func (f *Forest) rootPath(v graph.V) []graph.V {
	path := []graph.V{v}
	for f.fparent[v] != v {
		v = f.fparent[v]
		path = append(path, v)
	}
	return path
}

// Connected reports whether the forest holds a connection between u and
// v (same tree).
func (f *Forest) Connected(u, v graph.V) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(u) >= len(f.fparent) || int(v) >= len(f.fparent) {
		return false
	}
	return f.find(u) == f.find(v)
}

// History returns v's component merge timeline: every recorded merge
// whose trees are now part of v's component, in ordinal (recording)
// order. The earliest records are the component's oldest joins; each
// entry's pre-merge sizes show how the component accreted.
func (f *Forest) History(v graph.V) []MergeRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(v) >= len(f.fparent) {
		return nil
	}
	root := f.find(v)
	out := make([]MergeRecord, 0, 16)
	for _, rec := range f.records {
		if f.find(rec.U) == root {
			out = append(out, rec)
		}
	}
	return out
}

// Stats is the forest's health summary for gauges and /stats.
type Stats struct {
	Vertices int   `json:"vertices"`
	Records  int   `json:"records"`
	Ghost    int   `json:"ghost_records"`
	Trees    int   `json:"trees"` // forest trees (== current components among recorded vertices)
	Dropped  int64 `json:"dropped"`
	// MemoryBytes estimates the forest's retained footprint: the three
	// per-vertex arrays plus the record log.
	MemoryBytes int64 `json:"memory_bytes"`
}

// StatsNow returns current stats.
func (f *Forest) StatsNow() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	ghost := 0
	for _, r := range f.records {
		if r.Ghost {
			ghost++
		}
	}
	n := len(f.fparent)
	const perVertex = 4 + 24 + 4 + 4 + 4 // fparent + ann + dsu + size + min
	const perRecord = 64                 // MergeRecord
	return Stats{
		Vertices:    n,
		Records:     len(f.records),
		Ghost:       ghost,
		Trees:       n - len(f.records),
		Dropped:     f.dropped,
		MemoryBytes: int64(n)*perVertex + int64(len(f.records))*perRecord,
	}
}

// Dump serializes the forest for /debug/provenance. Canonical mode is
// for replay-stable golden comparisons: it contains only state that is
// deterministic for a given serial record order (the full record log
// and the tree-edge list sorted by child vertex), omitting the memory
// estimate. Non-canonical adds Stats.
func (f *Forest) Dump(canonical bool) []byte {
	f.mu.Lock()
	type treeEdge struct {
		Child   graph.V `json:"child"`
		Parent  graph.V `json:"parent"`
		LSN     uint64  `json:"lsn,omitempty"`
		Ordinal uint64  `json:"ordinal"`
		Ghost   bool    `json:"ghost,omitempty"`
	}
	edges := make([]treeEdge, 0, len(f.records))
	for v := range f.fparent {
		p := f.fparent[v]
		if p == graph.V(v) {
			continue
		}
		a := f.fedge[v]
		edges = append(edges, treeEdge{Child: graph.V(v), Parent: p, LSN: a.lsn, Ordinal: a.ord, Ghost: a.ghost})
	}
	records := append([]MergeRecord(nil), f.records...)
	f.mu.Unlock()

	body := map[string]any{
		"vertices": len(f.fparent),
		"records":  records,
		"edges":    edges,
	}
	if !canonical {
		body["stats"] = f.StatsNow()
	}
	b, _ := json.MarshalIndent(body, "", " ")
	return append(b, '\n')
}
