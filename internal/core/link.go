package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// link is Fig 3, the one copy of its climb loop in the package. It
// ensures u and v are in the same component tree of π, merging their
// trees if needed. It is lock-free and safe to call from any number of
// goroutines on any edge order: convergence is local, so each edge
// needs to be processed exactly once (Theorem 1).
//
// The procedure climbs from the current parents of u and v toward a
// root. At each step the higher-indexed vertex h of the two frontier
// parents is inspected; if h is a root it is hooked under the lower
// vertex l with a CAS (preserving Invariant 1: π(x) ≤ x). On CAS
// failure or a non-root h the climb continues from one ancestor up —
// unlike SV's hook, which would defer the edge to the next global
// iteration.
//
// link reports what it did. loser is the root it hooked and winner the
// vertex l it was hooked under, an ancestor of one endpoint but not
// necessarily a root. loser == 0 means no merge: a hooked root always
// goes under a smaller id, so a real loser is never 0. iters counts
// loop iterations, the entry comparison included, so an edge whose
// trees already converged runs "a single local iteration of link for
// validation" (Section V-A). casFails counts hook CASes lost to
// another goroutine.
func link(p Parent, u, v graph.V) (winner, loser graph.V, iters, casFails int64) {
	iters = 1
	p1 := p.Get(u)
	p2 := p.Get(v)
	for p1 != p2 {
		iters++
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		// Done if another processor already hooked h under l; otherwise
		// attempt the hook ourselves if h is (still) a root.
		if ph == l {
			return 0, 0, iters, casFails
		}
		if ph == h {
			if p.cas(h, h, l) {
				return l, h, iters, casFails
			}
			casFails++
		}
		// Climb: one grandparent step on the high side, one parent step
		// on the low side (matching the GAP-style formulation the paper
		// derives from).
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
	return 0, 0, iters, casFails
}

// Link ensures u and v are in the same component tree of π, merging
// their trees if needed (Fig 3): link without its report.
func Link(p Parent, u, v graph.V) { link(p, u, v) }

// LinkRecord is Link that additionally reports whether this call merged
// two trees (performed the successful hook CAS). Under Invariant 1 a
// hooked vertex h was the root of its own tree and l belonged to a
// different tree (roots are the minimum ids of their trees, and l < h),
// so every true return corresponds to exactly one tree merge.
func LinkRecord(p Parent, u, v graph.V) bool {
	_, loser, _, _ := link(p, u, v)
	return loser != 0
}

// Compress performs full path compression for v (Fig 2b): repeatedly
// π(v) ← π(π(v)) until v points at a root, reducing v's depth to one.
// Each goroutine writes only to its own π(v), so parallel Compress over
// all vertices has no write conflicts (Theorem 2); concurrent reads of
// ancestors may observe other goroutines' compressions, which only
// shorten the path.
func Compress(p Parent, v graph.V) {
	for {
		parent := p.Get(v)
		grand := p.Get(parent)
		if parent == grand {
			return
		}
		p.set(v, grand)
	}
}

// CompressAll flattens every vertex in parallel (Fig 5 lines 6–8 and
// 16–18), leaving every tree at depth one. Chunks run the gathered
// kernel (hotpath.go): π for runs of consecutive vertices is loaded
// batch-wise, root walks start from the gathered parents, and each
// vertex is stored at most once — same fixed point as Compress per
// vertex, fewer loads and stores per pass.
func CompressAll(p Parent, parallelism int) {
	concurrent.ForRange(len(p), parallelism, 512, func(lo, hi, _ int) {
		compressRangeGathered(p, lo, hi)
	})
}

// CompressHalve is the path-halving alternative to Compress: a single
// grandparent hop (π(v) ← π(π(v))) per call instead of a full walk to
// the root. Interleaving halving rounds is cheaper per pass but leaves
// trees deeper than one level, so subsequent links walk farther — the
// trade-off the compress-variant ablation measures. Halving preserves
// Invariant 1 for the same reason Compress does (Lemma 2).
func CompressHalve(p Parent, v graph.V) {
	parent := p.Get(v)
	grand := p.Get(parent)
	if parent != grand {
		p.set(v, grand)
	}
}

// CompressHalveAll applies one halving round to every vertex.
func CompressHalveAll(p Parent, parallelism int) {
	parallelFor(len(p), parallelism, func(i int) {
		CompressHalve(p, graph.V(i))
	})
}
