package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// LinkRecord is Link that additionally reports whether this call merged
// two trees (performed the successful hook CAS). Under Invariant 1 a
// hooked vertex h was the root of its own tree and l belonged to a
// different tree (roots are the minimum ids of their trees, and l < h),
// so every true return corresponds to exactly one tree merge.
func LinkRecord(p Parent, u, v graph.V) bool {
	p1 := p.Get(u)
	p2 := p.Get(v)
	for p1 != p2 {
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		if ph == l {
			return false
		}
		if ph == h && p.cas(h, h, l) {
			return true
		}
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
	return false
}

// LinkRecordMerge is LinkRecord that additionally reports the hook:
// when the CAS succeeds, loser is the root that was hooked and winner
// is the lower-id vertex l it was hooked under. l is an ancestor of one
// endpoint but not necessarily a root; ApplyBatch resolves it to one.
// When no merge happens both are zero.
func LinkRecordMerge(p Parent, u, v graph.V) (winner, loser graph.V, merged bool) {
	p1 := p.Get(u)
	p2 := p.Get(v)
	for p1 != p2 {
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		if ph == l {
			return 0, 0, false
		}
		if ph == h && p.cas(h, h, l) {
			return l, h, true
		}
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
	return 0, 0, false
}

// SpanningForest extracts a spanning forest of g using the duality of
// Section IV-A: run Afforest's link over all edges and keep exactly the
// edges whose Link performed a tree merge. The result has |V| − C edges,
// preserves connectivity, and is acyclic.
func SpanningForest(g *graph.CSR, parallelism int) []graph.Edge {
	n := g.NumVertices()
	p := NewParent(n)
	workers := workerCount(parallelism)
	perWorker := make([][]graph.Edge, workers)
	concurrent.ForWorker(n, parallelism, 512, func(i, w int) {
		u := graph.V(i)
		for _, v := range g.Neighbors(u) {
			if u != v && LinkRecord(p, u, v) { // self loops never merge
				perWorker[w] = append(perWorker[w], graph.Edge{U: u, V: v})
			}
		}
	})
	var forest []graph.Edge
	for _, part := range perWorker {
		forest = append(forest, part...)
	}
	return forest
}

// SpanningForestGraph materializes the spanning forest as a CSR over
// g's vertex set.
func SpanningForestGraph(g *graph.CSR, parallelism int) *graph.CSR {
	return graph.Build(SpanningForest(g, parallelism),
		graph.BuildOptions{NumVertices: g.NumVertices(), Parallelism: parallelism})
}
