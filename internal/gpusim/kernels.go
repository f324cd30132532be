package gpusim

import (
	"afforest/internal/graph"
)

// Array ids for the cost model (which memory stream an access hits).
const (
	arrPi = iota
	arrSrc
	arrDst
	arrOffsets
	arrTargets
)

// Result couples a labeling with its device cost.
type Result struct {
	Labels  []graph.V
	Metrics Metrics
}

// SVEdgeList is Soman et al.'s GPU formulation: each thread owns one
// arc of a flat COO edge list. Work per thread is constant (homogeneous
// streaming — the property the paper credits for its GPU efficiency),
// and the src/dst streams coalesce perfectly; only the π accesses
// scatter.
func SVEdgeList(g *graph.CSR, cfg Config) Result {
	n := g.NumVertices()
	src := g.ArcSources()
	dst := g.Targets()
	pi := make([]graph.V, n)
	for v := range pi {
		pi[v] = graph.V(v)
	}
	dev := NewDevice(cfg)
	for change := true; change; {
		change = false
		// Hook kernel: one thread per arc.
		dev.Launch(len(dst), func(k int, t *Thread) {
			t.Touch(arrSrc, int64(k))
			t.Touch(arrDst, int64(k))
			pu := pi[src[k]]
			pv := pi[dst[k]]
			t.Touch(arrPi, int64(src[k]))
			t.Touch(arrPi, int64(dst[k]))
			if pu == pv {
				return
			}
			high, low := pu, pv
			if high < low {
				high, low = low, high
			}
			t.Touch(arrPi, int64(high))
			if pi[high] == high {
				pi[high] = low
				t.Touch(arrPi, int64(high))
				change = true
			}
		})
		// Pointer-jumping kernel: one thread per vertex.
		dev.Launch(n, func(v int, t *Thread) {
			for {
				p := pi[v]
				t.Touch(arrPi, int64(v))
				g2 := pi[p]
				t.Touch(arrPi, int64(p))
				if p == g2 {
					return
				}
				pi[v] = g2
				t.Touch(arrPi, int64(v))
			}
		})
	}
	return Result{Labels: pi, Metrics: dev.Metrics()}
}

// SVCSR is the vertex-centric CSR formulation: each thread owns one
// vertex and iterates its full adjacency. On narrow-degree graphs
// (road) the per-thread work is balanced and the smaller CSR footprint
// wins; on power-law graphs hub threads serialize their warps (the
// divergence this package measures), which is why Soman's edge list
// beats it there — matching the paper's osm-eur/road observation.
func SVCSR(g *graph.CSR, cfg Config) Result {
	n := g.NumVertices()
	pi := make([]graph.V, n)
	for v := range pi {
		pi[v] = graph.V(v)
	}
	dev := NewDevice(cfg)
	offsets := g.Offsets()
	targets := g.Targets()
	for change := true; change; {
		change = false
		dev.Launch(n, func(u int, t *Thread) {
			t.Touch(arrOffsets, int64(u))
			t.Touch(arrOffsets, int64(u)+1)
			pu := pi[u]
			t.Touch(arrPi, int64(u))
			for k := offsets[u]; k < offsets[u+1]; k++ {
				v := targets[k]
				t.Touch(arrTargets, k)
				pv := pi[v]
				t.Touch(arrPi, int64(v))
				if pu == pv {
					continue
				}
				high, low := pu, pv
				if high < low {
					high, low = low, high
				}
				t.Touch(arrPi, int64(high))
				if pi[high] == high {
					pi[high] = low
					t.Touch(arrPi, int64(high))
					change = true
				}
			}
		})
		dev.Launch(n, func(v int, t *Thread) {
			for {
				p := pi[v]
				t.Touch(arrPi, int64(v))
				g2 := pi[p]
				t.Touch(arrPi, int64(p))
				if p == g2 {
					return
				}
				pi[v] = g2
				t.Touch(arrPi, int64(v))
			}
		})
	}
	return Result{Labels: pi, Metrics: dev.Metrics()}
}

// Afforest is the paper's GPU variant: CSR-based, but the neighbor
// rounds give every thread exactly one neighbor per kernel ("balances
// the load by processing the same neighbor index during each link
// round", Section VI-B), and component skipping shrinks the divergent
// final phase to the non-giant remainder.
func Afforest(g *graph.CSR, neighborRounds int, skip bool, cfg Config) Result {
	n := g.NumVertices()
	pi := make([]graph.V, n)
	for v := range pi {
		pi[v] = graph.V(v)
	}
	dev := NewDevice(cfg)
	offsets := g.Offsets()
	targets := g.Targets()

	// Fig 3's read-only climb, as in the paper's GPU kernel; core's
	// link also stores each grandparent step it takes.
	link := func(u, v graph.V, t *Thread) {
		p1 := pi[u]
		t.Touch(arrPi, int64(u))
		p2 := pi[v]
		t.Touch(arrPi, int64(v))
		for p1 != p2 {
			var h, l graph.V
			if p1 > p2 {
				h, l = p1, p2
			} else {
				h, l = p2, p1
			}
			ph := pi[h]
			t.Touch(arrPi, int64(h))
			if ph == l {
				return
			}
			if ph == h {
				pi[h] = l
				t.Touch(arrPi, int64(h))
				return
			}
			t.Touch(arrPi, int64(ph))
			p1 = pi[ph]
			t.Touch(arrPi, int64(l))
			p2 = pi[l]
		}
	}
	compress := func() {
		dev.Launch(n, func(v int, t *Thread) {
			for {
				p := pi[v]
				t.Touch(arrPi, int64(v))
				g2 := pi[p]
				t.Touch(arrPi, int64(p))
				if p == g2 {
					return
				}
				pi[v] = g2
				t.Touch(arrPi, int64(v))
			}
		})
	}

	for r := 0; r < neighborRounds; r++ {
		dev.Launch(n, func(u int, t *Thread) {
			t.Touch(arrOffsets, int64(u))
			t.Touch(arrOffsets, int64(u)+1)
			if int64(r) < offsets[u+1]-offsets[u] {
				k := offsets[u] + int64(r)
				t.Touch(arrTargets, k)
				link(graph.V(u), targets[k], t)
			}
		})
		compress()
	}
	var c graph.V
	if skip {
		// Mode estimation reads a constant number of π entries; model
		// it as one short kernel.
		counts := map[graph.V]int{}
		best := -1
		dev.Launch(1024, func(i int, t *Thread) {
			idx := int64(i) * int64(n) / 1024
			t.Touch(arrPi, idx)
			v := pi[idx]
			counts[v]++
			if counts[v] > best {
				best = counts[v]
				c = v
			}
		})
	}
	dev.Launch(n, func(u int, t *Thread) {
		t.Touch(arrPi, int64(u))
		if skip && pi[u] == c {
			return
		}
		t.Touch(arrOffsets, int64(u))
		t.Touch(arrOffsets, int64(u)+1)
		for k := offsets[u] + int64(neighborRounds); k < offsets[u+1]; k++ {
			t.Touch(arrTargets, k)
			link(graph.V(u), targets[k], t)
		}
	})
	compress()
	return Result{Labels: pi, Metrics: dev.Metrics()}
}
