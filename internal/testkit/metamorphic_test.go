package testkit

import (
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

// Metamorphic relations: transformations of the input that provably
// preserve the component partition. Afforest's output on the
// transformed graph must match its output on the original — this
// catches dependence on edge order, vertex numbering, or adjacency
// direction that the differential matrix (which fixes the input) can
// miss.

// metamorphicCases are the corpus graphs the relations run over: a mix
// of extremal shapes and generator output, kept modest so the full set
// of relations × seeds stays fast.
var metamorphicCases = []string{
	"path-1024", "star-high-center-1024", "bridged-cliques-32",
	"64-equal-components", "bare-majority", "zoo", "kron-10",
}

// splitmix is a local SplitMix64 stream for building permutations.
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

func shuffledEdges(edges []graph.Edge, seed uint64) []graph.Edge {
	out := append([]graph.Edge(nil), edges...)
	next := splitmix(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func randomVertexPerm(n int, seed uint64) []graph.V {
	perm := make([]graph.V, n)
	for i := range perm {
		perm[i] = graph.V(i)
	}
	next := splitmix(seed)
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func afforestLabels(g *graph.CSR, seed uint64) []graph.V {
	o := core.DefaultOptions()
	o.Seed = seed
	return core.Run(g, o).Labels()
}

func forEachMetamorphicCase(t *testing.T, fn func(t *testing.T, name string, g *graph.CSR, base []graph.V, seed uint64)) {
	t.Helper()
	seeds := []uint64{11, 0xabcdef}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range metamorphicCases {
		c, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Build()
		base := afforestLabels(g, 1)
		for _, seed := range seeds {
			fn(t, name, g, base, seed)
		}
	}
}

// TestMetamorphicEdgePermutation: shuffling the input edge list — and
// forcing the builder to preserve the shuffled adjacency order, so the
// neighbor-sampling rounds actually see different neighbors — must not
// change the partition.
func TestMetamorphicEdgePermutation(t *testing.T) {
	forEachMetamorphicCase(t, func(t *testing.T, name string, g *graph.CSR, base []graph.V, seed uint64) {
		shuffled := graph.Build(shuffledEdges(g.Edges(), seed), graph.BuildOptions{
			NumVertices:   g.NumVertices(),
			PreserveOrder: true,
		})
		got := afforestLabels(shuffled, seed)
		if err := validate.SamePartition(base, got); err != nil {
			t.Errorf("%s seed=%#x: edge permutation changed the partition: %v", name, seed, err)
		}
	})
}

// TestMetamorphicVertexRelabeling: renaming vertices by a random
// bijection σ must yield the σ-image of the original partition:
// pulling the new labels back through σ is partition-equal to the
// original labeling. This exercises Invariant 1 under arbitrary id
// orderings (which endpoint of each edge is the "smaller" one flips).
func TestMetamorphicVertexRelabeling(t *testing.T) {
	forEachMetamorphicCase(t, func(t *testing.T, name string, g *graph.CSR, base []graph.V, seed uint64) {
		n := g.NumVertices()
		sigma := randomVertexPerm(n, seed)
		edges := g.Edges()
		mapped := make([]graph.Edge, len(edges))
		for i, e := range edges {
			mapped[i] = graph.Edge{U: sigma[e.U], V: sigma[e.V]}
		}
		relabeled := graph.Build(mapped, graph.BuildOptions{NumVertices: n})
		got := afforestLabels(relabeled, seed)
		pulled := make([]graph.V, n)
		for v := 0; v < n; v++ {
			pulled[v] = got[sigma[v]]
		}
		if err := validate.SamePartition(base, pulled); err != nil {
			t.Errorf("%s seed=%#x: vertex relabeling changed the partition: %v", name, seed, err)
		}
	})
}

// TestMetamorphicSymmetrization: listing every edge in both directions
// (and keeping the duplicate arcs) doubles each adjacency list without
// adding connectivity; the partition must be unchanged.
func TestMetamorphicSymmetrization(t *testing.T) {
	forEachMetamorphicCase(t, func(t *testing.T, name string, g *graph.CSR, base []graph.V, seed uint64) {
		edges := g.Edges()
		doubled := make([]graph.Edge, 0, 2*len(edges))
		for _, e := range edges {
			doubled = append(doubled, e, graph.Edge{U: e.V, V: e.U})
		}
		sym := graph.Build(doubled, graph.BuildOptions{
			NumVertices:    g.NumVertices(),
			KeepDuplicates: true,
			KeepSelfLoops:  true,
		})
		got := afforestLabels(sym, seed)
		if err := validate.SamePartition(base, got); err != nil {
			t.Errorf("%s seed=%#x: symmetrization changed the partition: %v", name, seed, err)
		}
	})
}
