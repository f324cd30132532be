package core

import "afforest/internal/graph"

// This file holds the memory-level-parallelism kernel behind the
// compress passes. Afforest is bandwidth-bound: the dominant cost of a
// pass is random π reads, one cache miss each. Go has no prefetch
// intrinsic, but the same effect falls out of batching: issue a run of
// *independent* π loads into a small stack buffer first, then resolve
// them — the CPU's out-of-order window overlaps the misses instead of
// serializing one full memory latency per vertex behind a dependent
// branch.
//
// gatherBatch is the number of π reads issued together. It wants to be
// at least the line-fill-buffer depth (~10–16 outstanding misses on
// current x86/arm cores) and small enough that the gathered values are
// still register/L1-resident when consumed; 32 covers both with room
// for the compiler to keep the buffers on the stack.
const gatherBatch = 32

// CompressFrom flattens v given its already-loaded parent: walk the
// ancestor chain to the root, then store π(v) ← root once. During a
// compress-only pass roots never move (no hooks run), and concurrent
// compressions of other vertices only shorten the chain, so the root
// found is v's root and one store suffices — unlike Compress's
// store-per-hop, which re-reads π(v) it alone writes. Invariant 1 holds
// because the root is an ancestor: root ≤ parent ≤ v.
func CompressFrom(p Parent, v, parent graph.V) {
	root := parent
	for {
		g := p.Get(root)
		if g == root {
			break
		}
		root = g
	}
	if root != parent {
		p.set(v, root)
	}
}

// compressRangeGathered flattens a vertex range in two gather stages:
// π for a batch of consecutive vertices is one or two cache lines
// loaded together, then the batch's *grandparents* — the random,
// miss-prone loads — are gathered as independent reads before any root
// walk runs. On a post-link forest almost every gathered grandparent
// equals its parent (the tree is already depth ≤ 1 there), so most
// vertices finish inside the gathered data with no store; only the few
// deep chains fall through to the walking kernel.
func compressRangeGathered(p Parent, lo, hi int) {
	var ps, gs [gatherBatch]graph.V
	for v := lo; v < hi; {
		b := hi - v
		if b > gatherBatch {
			b = gatherBatch
		}
		for i := 0; i < b; i++ {
			ps[i] = p.Get(graph.V(v + i))
		}
		for i := 0; i < b; i++ {
			gs[i] = p.Get(ps[i])
		}
		for i := 0; i < b; i++ {
			if gs[i] == ps[i] {
				continue // parent is a root: already flat, nothing to store
			}
			CompressFrom(p, graph.V(v+i), ps[i])
		}
		v += b
	}
}
