package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// Incremental is an online connectivity structure built from Afforest's
// lock-free link/compress primitives: edges stream in (concurrently,
// from any number of goroutines) and connectivity queries are answered
// at any point, without re-running the batch algorithm. This is a
// by-product of the paper's design — because link converges locally per
// edge (Theorem 1 holds for any edge order, including interleaved with
// queries), the same π array doubles as a concurrent union-find.
type Incremental struct {
	p          Parent
	components atomic.Int64
	// appliedLSN is the WAL high-water mark: the largest log sequence
	// number whose batch has been applied to π. Maintained by the serve
	// layer (MarkApplied after each flush, and during replay); 0 means
	// no logged history has been applied.
	appliedLSN atomic.Uint64
}

// NewIncremental returns a structure over n isolated vertices.
func NewIncremental(n int) *Incremental {
	inc := &Incremental{p: NewParent(n)}
	inc.components.Store(int64(n))
	return inc
}

// NumVertices returns n.
func (inc *Incremental) NumVertices() int { return len(inc.p) }

// AddEdge records the undirected edge {u, v}, returning true if it
// merged two previously disconnected components. Safe for concurrent
// use; each successful merge is counted exactly once (the hook CAS has
// a unique winner).
func (inc *Incremental) AddEdge(u, v graph.V) bool {
	if u == v {
		return false
	}
	if LinkRecord(inc.p, u, v) {
		inc.components.Add(-1)
		return true
	}
	return false
}

// AddEdgeAt is AddEdge; lsn is not read. It remains because cmd/ccperf
// calls it.
func (inc *Incremental) AddEdgeAt(u, v graph.V, lsn uint64) bool {
	return inc.AddEdge(u, v)
}

// AddEdges applies a batch of undirected edges in parallel and returns
// the number that merged two components. Theorem 1's order freedom is
// what makes the parallel pass safe: each edge converges locally
// regardless of interleaving. A non-nil tracer records one
// edge_batch_apply span carrying the batch size and merge count — the
// same span the serve layer's batcher emits per flush.
//
// AddEdges only counts merges. A caller that must know which edges
// merged (provenance, exact sizes) uses ApplyBatch. The 2% tripwire in
// bench_test.go holds this loop to a frozen count-only copy.
func (inc *Incremental) AddEdges(edges []graph.Edge, parallelism int, tr *obs.Tracer) int64 {
	if len(edges) == 0 {
		return 0
	}
	var span obs.SpanID
	if tr != nil {
		span = tr.BeginPhase(obs.PhaseEdgeBatch)
	}
	p := inc.p // hoist the slice header out of the hot loop (the CAS barrier in LinkRecord blocks re-hoisting a field load)
	var merged atomic.Int64
	concurrent.ForRange(len(edges), parallelism, 256, func(lo, hi, _ int) {
		var local int64
		for _, e := range edges[lo:hi] {
			if e.U != e.V && LinkRecord(p, e.U, e.V) {
				local++
			}
		}
		if local > 0 {
			merged.Add(local)
		}
	})
	m := merged.Load()
	if m > 0 {
		inc.components.Add(-m)
	}
	if tr != nil {
		tr.EndPhase(span, obs.PhaseStats{
			Edges:  int64(len(edges)),
			Links:  int64(len(edges)),
			Merges: m,
		})
	}
	return m
}

// Merge is one component merge performed by ApplyBatch: the batch's
// edge Edge (an index into the batch) hooked root Loser under the
// component whose root is Winner.
type Merge struct {
	Edge   int32
	Winner graph.V
	Loser  graph.V
}

// ApplyBatch links a batch of edges in parallel, like AddEdges, and
// returns the merges it performed, each with its causal edge. Which
// edge of a cycle merges depends on the schedule; at parallelism 1 the
// edges link in batch order, so the merging edges are a function of
// the batch and the pre-batch partition alone.
//
// The merges come back in descending Loser order, and Winner is the
// pre-batch root of the vertex Loser was hooked under. Applied in that
// order to the pre-batch partition, every merge joins two distinct
// current roots (Winner < Loser, both component minima). A loser is a
// pre-batch root, and so is each merge's Winner; a Winner's own merge,
// if it has one, has a smaller Loser and comes later. A serial consumer
// can therefore fold exact per-root sizes from the list alone.
//
// Finally every hooked loser and, through CompressEndpoints, every edge
// endpoint is pointed at its root, so streaming keeps trees shallow
// without an O(n) compress pass.
//
// Winner resolution walks π as the link pass left it, so it is exact
// only when nothing else links or compresses π during the call; the
// serve layer's batcher holds its view lock for that. Concurrent
// callers still get every merge, with a Winner that may be a later
// root.
func (inc *Incremental) ApplyBatch(edges []graph.Edge, parallelism int) []Merge {
	if len(edges) == 0 {
		return nil
	}
	p := inc.p
	parts := make([][]Merge, concurrent.Procs(parallelism))
	concurrent.ForRange(len(edges), parallelism, 256, func(lo, hi, w int) {
		local := parts[w]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				continue
			}
			if winner, loser, _, _ := link(p, e.U, e.V); loser != 0 {
				local = append(local, Merge{Edge: int32(i), Winner: winner, Loser: loser})
			}
		}
		parts[w] = local
	})
	merges := slices.Concat(parts...)
	inc.components.Add(-int64(len(merges)))
	slices.SortFunc(merges, func(a, b Merge) int { return cmp.Compare(b.Loser, a.Loser) })
	// The hook vertex's path still runs through untouched pre-batch
	// parents to its pre-batch root: the first vertex on it that is now
	// a root or was hooked in this batch.
	hooked := func(x graph.V) bool {
		_, found := slices.BinarySearchFunc(merges, x, func(m Merge, x graph.V) int { return cmp.Compare(x, m.Loser) })
		return found
	}
	for i := range merges {
		x := merges[i].Winner
		for px := p.Get(x); px != x && !hooked(x); px = p.Get(x) {
			x = px
		}
		merges[i].Winner = x
	}
	for _, m := range merges {
		Compress(p, m.Loser)
	}
	inc.CompressEndpoints(edges, parallelism)
	return merges
}

// CompressEndpoints points both endpoints of every edge at its root, in
// parallel: Fig 5's compress step restricted to the vertices a batch
// touched, so it costs O(batch), not O(n). ApplyBatch ends with it, and
// a caller of the count-only AddEdges runs it after the links to keep
// streamed trees shallow. Safe concurrently with links and finds.
func (inc *Incremental) CompressEndpoints(edges []graph.Edge, parallelism int) {
	p := inc.p
	concurrent.ForRange(len(edges), parallelism, 256, func(lo, hi, _ int) {
		for _, e := range edges[lo:hi] {
			Compress(p, e.U)
			Compress(p, e.V)
		}
	})
}

// MarkApplied advances the applied-LSN watermark to lsn if it is
// higher (a monotonic max — replay and concurrent flushes may call
// out of order).
func (inc *Incremental) MarkApplied(lsn uint64) {
	for {
		cur := inc.appliedLSN.Load()
		if lsn <= cur || inc.appliedLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// AppliedLSN returns the largest WAL sequence number applied to π.
func (inc *Incremental) AppliedLSN() uint64 { return inc.appliedLSN.Load() }

// Connected reports whether u and v are currently in the same
// component. Safe concurrently with AddEdge; the answer reflects some
// linearization of the concurrent operations (a true result is always
// durable — components never split).
func (inc *Incremental) Connected(u, v graph.V) bool {
	for {
		ru := inc.p.Find(u)
		rv := inc.p.Find(v)
		if ru == rv {
			return true
		}
		// The roots differ, but a concurrent AddEdge may have re-rooted
		// one of them mid-walk. The answer is correct if both are still
		// roots at this instant.
		if inc.p.Get(ru) == ru && inc.p.Get(rv) == rv {
			return false
		}
	}
}

// Find returns the current representative of v's component. As with
// Connected, representatives are stable only in quiescence.
func (inc *Incremental) Find(v graph.V) graph.V { return inc.p.Find(v) }

// NumComponents returns the current number of components.
func (inc *Incremental) NumComponents() int { return int(inc.components.Load()) }

// Labels compresses and returns the canonical labeling, like a batch
// run's result. The returned slice aliases the live structure; copy it
// if edges will continue to stream.
func (inc *Incremental) Labels(parallelism int) []graph.V {
	CompressAll(inc.p, parallelism)
	return inc.p.Labels()
}

// Snapshot compresses and returns a copy of the labeling that does not
// alias live state: the caller owns it outright, and concurrent
// insertions after Snapshot returns cannot perturb it. The serve layer
// exports and persists labels through it. Edges inserted concurrently
// with the Snapshot call itself may or may not be reflected (each
// vertex's label is some linearized value).
func (inc *Incremental) Snapshot(parallelism int) []graph.V {
	CompressAll(inc.p, parallelism)
	out := make([]graph.V, len(inc.p))
	parallelFor(len(inc.p), parallelism, func(i int) {
		out[i] = inc.p.Get(graph.V(i))
	})
	return out
}

// Components is Snapshot with default parallelism: the compressed,
// caller-owned component label slice (two vertices are connected iff
// their labels are equal).
func (inc *Incremental) Components() []graph.V { return inc.Snapshot(0) }

// ComponentSize returns the number of vertices currently in v's
// component. It is an O(n) scan (no mutation, safe concurrently with
// AddEdge); under streaming the result reflects some linearization, and
// sizes only ever grow. Exact per-root sizes need every merge folded in
// a known order, which concurrent AddEdge callers cannot provide without
// a lock; a serving layer that serializes its batches can fold the
// ApplyBatch merge lists instead.
func (inc *Incremental) ComponentSize(v graph.V) int {
	root := inc.p.Find(v)
	size := 0
	for u := range inc.p {
		if inc.p.Find(graph.V(u)) == root {
			size++
		}
	}
	return size
}

// RestoreIncremental rebuilds an Incremental from a label slice
// previously produced by Snapshot/Components (or any labeling honoring
// Invariant 1, e.g. a batch Run's compressed π). The slice is copied;
// the component count is recomputed from the root population. This is
// the restart-without-rebuild hook: a served graph's π persisted at
// shutdown comes back without re-running the batch algorithm.
func RestoreIncremental(labels []graph.V) (*Incremental, error) {
	p := make(Parent, len(labels))
	copy(p, labels)
	if v := p.Validate(); v >= 0 {
		return nil, fmt.Errorf("core: label snapshot violates invariant π(x) ≤ x at vertex %d (π=%d)", v, p.Get(graph.V(v)))
	}
	inc := &Incremental{p: p}
	inc.components.Store(int64(p.CountTrees()))
	return inc, nil
}
