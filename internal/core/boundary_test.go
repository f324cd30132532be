package core_test

import (
	"slices"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/testkit"
)

// TestCompressBoundariesAreRowPrefixMinima checks π at every compress
// boundary of the default run over the testkit corpus: after neighbor
// round r's compress, π(v) must be the minimum of v's component in the
// graph of the first r+1 arcs of every row, and after the final
// compress the minimum of its component. A serial union-find computes
// both. This is what lets the link climb store its steps: whatever
// paths the links leave between compresses, each compress lands on the
// same π.
func TestCompressBoundariesAreRowPrefixMinima(t *testing.T) {
	for _, c := range testkit.Corpus() {
		g := c.Build()
		n := g.NumVertices()
		offsets, targets := g.Adjacency(0, n)
		// want returns the component minima of the first k arcs of every
		// row (k < 0: all arcs).
		want := func(k int64) []graph.V {
			parent := make([]graph.V, n)
			for v := range parent {
				parent[v] = graph.V(v)
			}
			find := func(x graph.V) graph.V {
				for parent[x] != x {
					x = parent[x]
				}
				return x
			}
			for u := 0; u < n; u++ {
				hi := offsets[u+1]
				if k >= 0 {
					hi = min(hi, offsets[u]+k)
				}
				for _, v := range targets[offsets[u]:hi] {
					a, b := find(graph.V(u)), find(v)
					if a > b {
						a, b = b, a
					}
					parent[b] = a
				}
			}
			for v := range parent {
				parent[v] = find(graph.V(v))
			}
			return parent
		}
		for _, par := range []int{1, 2, 8} {
			opt := core.DefaultOptions()
			opt.Parallelism = par
			round := int64(0)
			core.RunAudited(g, opt, func(p core.Parent, phase string) {
				var w []graph.V
				switch phase {
				case obs.PhaseCompress:
					round++
					w = want(round)
				case obs.PhaseFinalCompress:
					w = want(-1)
				default:
					return
				}
				if got := p.Labels(); !slices.Equal(got, w) {
					t.Fatalf("%s p=%d: π after %s %d differs from the component minima", c.Name, par, phase, round)
				}
			})
		}
	}
}
