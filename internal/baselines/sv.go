// Package baselines implements the comparison algorithms of the paper's
// evaluation (Section VI): the Shiloach–Vishkin tree-hooking algorithm
// as implemented by the GAP Benchmark Suite (Fig 1), an edge-list
// ("GPU-style", Soman et al.) SV variant, Min-Label Propagation in both
// synchronous and data-driven forms, BFS-CC, and direction-optimizing
// DOBFS-CC. A sequential union-find rounds out the set as a serial
// reference.
//
// Every algorithm returns per-vertex component labels; all of them
// canonicalize to the minimum vertex id per component except the BFS
// variants, whose labels are BFS roots (still minimal in their
// component because roots are claimed in ascending order).
package baselines

import (
	"sync/atomic"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// SV is the Shiloach–Vishkin algorithm exactly as listed in Fig 1 of
// the paper (the GAP implementation): alternating parallel hook and
// shortcut phases over the full edge set until no hook fires. Total
// work is O(log(|V|)·|E|) — every edge is reprocessed each iteration,
// the inefficiency Afforest removes.
func SV(g *graph.CSR, parallelism int) []graph.V {
	labels, _ := SVInstrumented(g, parallelism, nil)
	return labels
}

// SVInstrumented runs SV and reports the number of outer iterations
// (Table II's "iterations" column for SV). afterHook, when non-nil,
// runs on the calling goroutine after each hook phase, before its
// shortcut, with π as the hook left it; no parallel work is in flight
// then. Table II reads the tree depth there.
func SVInstrumented(g *graph.CSR, parallelism int, afterHook func(pi []graph.V)) ([]graph.V, int) {
	n := g.NumVertices()
	pi := make([]uint32, n)
	for v := range pi {
		pi[v] = uint32(v)
	}
	var offsets []int64
	var targets []graph.V
	if n > 0 {
		offsets, targets = g.Adjacency(0, n)
	}
	iterations := 0
	var change atomic.Bool
	change.Store(true)
	for change.Load() {
		change.Store(false)
		iterations++
		// Hook phase (Fig 1 lines 5–12): for every arc, if the parents
		// differ, hook the higher parent under the lower — but only if
		// the higher parent is currently a root. Competing hooks race;
		// any winner preserves π(x) ≤ x, so no cycles form and at
		// least one competitor succeeds per iteration. Since SV
		// re-traverses the full edge set every iteration, the hook loop
		// runs arc-balanced over the raw CSR slices.
		concurrent.ForEdgeRange(offsets, parallelism, 0, func(vlo, vhi int, alo, ahi int64, _ int) {
			for u := vlo; u < vhi; u++ {
				lo, hi := offsets[u], offsets[u+1]
				if lo < alo {
					lo = alo
				}
				if hi > ahi {
					hi = ahi
				}
				for _, v := range targets[lo:hi] {
					pu := atomic.LoadUint32(&pi[u])
					pv := atomic.LoadUint32(&pi[v])
					if pu == pv {
						continue
					}
					high, low := pu, pv
					if high < low {
						high, low = low, high
					}
					if atomic.LoadUint32(&pi[high]) == high {
						atomic.StoreUint32(&pi[high], low)
						change.Store(true)
					}
				}
			}
		})
		if afterHook != nil {
			afterHook(pi)
		}
		// Shortcut phase (Fig 1 lines 13–16): full pointer jumping.
		concurrent.ForGrain(n, parallelism, 512, func(i int) {
			v := graph.V(i)
			for {
				parent := atomic.LoadUint32(&pi[v])
				grand := atomic.LoadUint32(&pi[parent])
				if parent == grand {
					break
				}
				atomic.StoreUint32(&pi[v], grand)
			}
		})
	}
	return pi, iterations
}

// SVEdgeList is the GPU-style SV of Soman et al. [15], the paper's GPU
// baseline: instead of CSR vertex-centric traversal it streams a flat
// arc list (COO), assigning homogeneous per-arc work — the layout that
// trades extra memory loads for data-parallel regularity on GPUs. On
// the CPU substrate this reproduces the same work-distribution axis
// (edge-list streaming vs CSR) the paper's GPU comparison explores.
func SVEdgeList(g *graph.CSR, parallelism int) []graph.V {
	n := g.NumVertices()
	src := g.ArcSources()
	dst := g.Targets()
	pi := make([]uint32, n)
	for v := range pi {
		pi[v] = uint32(v)
	}
	var change atomic.Bool
	change.Store(true)
	for change.Load() {
		change.Store(false)
		concurrent.ForGrain(len(dst), parallelism, 4096, func(k int) {
			pu := atomic.LoadUint32(&pi[src[k]])
			pv := atomic.LoadUint32(&pi[dst[k]])
			if pu == pv {
				return
			}
			high, low := pu, pv
			if high < low {
				high, low = low, high
			}
			if atomic.LoadUint32(&pi[high]) == high {
				atomic.StoreUint32(&pi[high], low)
				change.Store(true)
			}
		})
		concurrent.ForGrain(n, parallelism, 4096, func(i int) {
			v := graph.V(i)
			for {
				parent := atomic.LoadUint32(&pi[v])
				grand := atomic.LoadUint32(&pi[parent])
				if parent == grand {
					break
				}
				atomic.StoreUint32(&pi[v], grand)
			}
		})
	}
	return pi
}

// SVWorkByWorker models SV's work distribution over `workers` logical
// workers the same way core.WorkByWorker does for Afforest: vertex
// chunks of 512 are attributed round-robin to logical workers, and the
// per-worker arc inspection counts bound achievable strong scaling
// (total / max). Every outer iteration inspects every arc, so a worker
// is charged the iteration count times its vertices' degrees. The count
// comes from a run at parallelism 1, which visits the arcs in vertex
// order, the serial order the model idealizes.
func SVWorkByWorker(g *graph.CSR, workers int) []int64 {
	if workers < 1 {
		workers = 1
	}
	const grain = 512
	_, iterations := SVInstrumented(g, 1, nil)
	counts := make([]int64, workers)
	for u := 0; u < g.NumVertices(); u++ {
		counts[(u/grain)%workers] += int64(iterations) * int64(g.Degree(graph.V(u)))
	}
	return counts
}
