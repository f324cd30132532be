// Package graph provides the graph substrate shared by every algorithm in
// this repository: a Compressed Sparse Row (CSR) representation identical
// in spirit to the one used by the GAP Benchmark Suite (the paper's CPU
// baseline), edge-list containers, parallel CSR construction, text and
// binary serialization, and graph statistics.
//
// Graphs are undirected: every edge {u, v} is stored as the two directed
// arcs (u, v) and (v, u). This mirrors the paper's CSR layout and is what
// makes Theorem 3 (large-component skipping) possible — each undirected
// edge is reachable from both endpoints' neighbor lists.
package graph

import "fmt"

// V is the vertex-id type. 32-bit ids halve the memory traffic of the π
// array relative to 64-bit, the same choice made by GAP; they also admit
// lock-free updates through sync/atomic's uint32 operations.
type V = uint32

// Edge is a single undirected edge. The (U, V) order is only storage
// order; {U, V} and {V, U} denote the same edge.
type Edge struct {
	U, V V
}

// CSR is an immutable undirected graph in Compressed Sparse Row form.
// Adjacency of vertex v is targets[offsets[v]:offsets[v+1]].
//
// The zero value is an empty graph. CSR values are safe for concurrent
// readers; they are never mutated after construction.
type CSR struct {
	offsets []int64
	targets []V
}

// NewCSR assembles a CSR directly from its raw parts. offsets must have
// length n+1 with offsets[0] == 0, be non-decreasing, and satisfy
// offsets[n] == len(targets); every target must be < n. It panics
// otherwise — raw assembly is a programming-error interface used by
// builders and deserialization, not by end users.
func NewCSR(offsets []int64, targets []V) *CSR {
	if len(offsets) == 0 || offsets[0] != 0 {
		panic("graph: offsets must start with 0")
	}
	n := len(offsets) - 1
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] {
			panic(fmt.Sprintf("graph: offsets decrease at %d", i))
		}
	}
	if offsets[n] != int64(len(targets)) {
		panic(fmt.Sprintf("graph: offsets[n]=%d != len(targets)=%d", offsets[n], len(targets)))
	}
	for _, t := range targets {
		if int(t) >= n {
			panic(fmt.Sprintf("graph: target %d out of range (n=%d)", t, n))
		}
	}
	return &CSR{offsets: offsets, targets: targets}
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumArcs returns the number of stored directed arcs (2·|E| for a graph
// built undirected).
func (g *CSR) NumArcs() int64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return g.offsets[len(g.offsets)-1]
}

// NumEdges returns |E|, the undirected edge count (NumArcs / 2).
func (g *CSR) NumEdges() int64 { return g.NumArcs() / 2 }

// Degree returns the number of neighbors of v.
func (g *CSR) Degree(v V) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency slice of v. The slice aliases the
// graph's internal storage and must not be modified.
func (g *CSR) Neighbors(v V) []V {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// Neighbor returns the i-th neighbor of v (0-based). It panics if
// i >= Degree(v). Afforest's neighbor-sampling rounds address neighbors
// positionally through this accessor.
func (g *CSR) Neighbor(v V, i int) V {
	return g.targets[g.offsets[v]+int64(i)]
}

// Adjacency returns the raw CSR arrays for the vertex range [lo, hi):
// offsets is the row-offset subarray of length hi-lo+1 holding absolute
// indices into targets, and targets is the full arc-target array, so
// the adjacency of vertex v in [lo, hi) is
// targets[offsets[v-lo]:offsets[v-lo+1]].
//
// This is the accessor-free view the link phases iterate: the per-edge
// cost of Degree/Neighbor calls (two offset loads plus function-call
// overhead per arc) matters in loops that are otherwise pure memory
// traffic, while a raw-slice walk pays one bounds check per chunk.
// Both slices alias the graph's internal storage and must not be
// modified.
func (g *CSR) Adjacency(lo, hi int) (offsets []int64, targets []V) {
	return g.offsets[lo : hi+1 : hi+1], g.targets
}

// Offsets exposes the row-offset array (len NumVertices()+1) for
// edge-parallel algorithms and serialization. Read-only.
func (g *CSR) Offsets() []int64 { return g.offsets }

// Targets exposes the flat arc-target array for edge-parallel algorithms
// (the "edge-list streaming" GPU-style SV baseline iterates it directly)
// and serialization. Read-only.
func (g *CSR) Targets() []V { return g.targets }

// ArcSources materializes the per-arc source array (len NumArcs). This is
// the "COO expansion" the edge-list SV baseline of Soman et al. operates
// on; the paper notes it loads more data in exchange for homogeneous
// per-arc work.
func (g *CSR) ArcSources() []V {
	src := make([]V, g.NumArcs())
	for v := 0; v < g.NumVertices(); v++ {
		for k := g.offsets[v]; k < g.offsets[v+1]; k++ {
			src[k] = V(v)
		}
	}
	return src
}

// Edges returns every undirected edge exactly once (u <= v order),
// reconstructed from the symmetric arc set.
func (g *CSR) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u <= v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// HasEdge reports whether {u, v} is present, using binary search when the
// adjacency is sorted and a linear scan otherwise. Builders in this
// package always sort adjacencies, but NewCSR does not require it, so a
// linear fallback keeps the method correct for hand-assembled graphs.
func (g *CSR) HasEdge(u, v V) bool {
	adj := g.Neighbors(u)
	if len(adj) > 16 && sortedAdj(adj) {
		lo, hi := 0, len(adj)
		for lo < hi {
			mid := (lo + hi) / 2
			if adj[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(adj) && adj[lo] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

func sortedAdj(adj []V) bool {
	for i := 1; i < len(adj); i++ {
		if adj[i-1] > adj[i] {
			return false
		}
	}
	return true
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// String summarizes the graph for logs and error messages.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{|V|=%d |E|=%d}", g.NumVertices(), g.NumEdges())
}
