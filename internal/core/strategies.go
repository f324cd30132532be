package core

import (
	"fmt"

	"afforest/internal/graph"
)

// A Strategy partitions a graph's edges into ordered batches, modeling
// the subgraph-processing orders compared in Section V-B (Fig 6): row
// sampling, uniform random edge sampling, vertex-neighbor sampling, and
// the optimal spanning-forest-first order. Afforest's correctness is
// order-independent (Theorem 1), so strategies differ only in
// convergence rate. Strategies model *what* the sampling rounds
// process; the gathered compress kernel in hotpath.go (DESIGN.md §12)
// changes *how* the π traffic between batches hits memory — the two
// axes compose freely.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Partition splits g's edges into roughly `batches` ordered batches.
	// Strategies based on per-vertex arcs may return a different batch
	// count (e.g. one batch per neighbor round).
	Partition(g *graph.CSR, batches int, seed uint64) [][]graph.Edge
}

// RowSampling partitions the adjacency matrix by contiguous row blocks:
// batch k holds every arc whose source lies in the k-th vertex range.
// The paper observes this converges slowest (Fig 6) — early batches
// only see a corner of the matrix.
type RowSampling struct{}

// Name implements Strategy.
func (RowSampling) Name() string { return "row" }

// Partition implements Strategy.
func (RowSampling) Partition(g *graph.CSR, batches int, _ uint64) [][]graph.Edge {
	n := g.NumVertices()
	if batches < 1 {
		batches = 1
	}
	out := make([][]graph.Edge, 0, batches)
	for b := 0; b < batches; b++ {
		lo, hi := n*b/batches, n*(b+1)/batches
		var batch []graph.Edge
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(graph.V(u)) {
				batch = append(batch, graph.Edge{U: graph.V(u), V: v})
			}
		}
		out = append(out, batch)
	}
	return out
}

// EdgeSampling processes undirected edges in a uniformly random order,
// sliced into equal batches — "random edge sampling with an increasing
// probability p" in the paper: after k batches, a p = k/batches uniform
// sample of E has been processed.
type EdgeSampling struct{}

// Name implements Strategy.
func (EdgeSampling) Name() string { return "edge" }

// Partition implements Strategy.
func (EdgeSampling) Partition(g *graph.CSR, batches int, seed uint64) [][]graph.Edge {
	edges := g.Edges()
	r := newStrategyRNG(seed)
	for i := len(edges) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	if batches < 1 {
		batches = 1
	}
	out := make([][]graph.Edge, 0, batches)
	for b := 0; b < batches; b++ {
		lo, hi := len(edges)*b/batches, len(edges)*(b+1)/batches
		out = append(out, edges[lo:hi])
	}
	return out
}

// NeighborSampling is the paper's contribution (Section IV-C): batch r
// holds the r-th neighbor arc of every vertex that has one, spreading
// O(|V|) sampled edges evenly across vertices and components. The
// requested batch count is ignored; there is one batch per neighbor
// rank, so the first two batches are exactly Afforest's default two
// neighbor rounds.
type NeighborSampling struct{}

// Name implements Strategy.
func (NeighborSampling) Name() string { return "neighbor" }

// Partition implements Strategy.
func (NeighborSampling) Partition(g *graph.CSR, _ int, _ uint64) [][]graph.Edge {
	n := g.NumVertices()
	maxDeg := g.MaxDegree()
	out := make([][]graph.Edge, 0, maxDeg)
	for r := 0; r < maxDeg; r++ {
		var batch []graph.Edge
		for u := 0; u < n; u++ {
			if r < g.Degree(graph.V(u)) {
				batch = append(batch, graph.Edge{U: graph.V(u), V: g.Neighbor(graph.V(u), r)})
			}
		}
		out = append(out, batch)
	}
	return out
}

// OptimalSampling is the oracle order of Fig 6: a spanning forest
// (computed by Afforest itself, Section IV-A) processed first, then the
// remaining cycle-closing edges. Linkage reaches 100% after |V|−C
// edges, the information-theoretic optimum.
type OptimalSampling struct{}

// Name implements Strategy.
func (OptimalSampling) Name() string { return "optimal" }

// Partition implements Strategy.
func (OptimalSampling) Partition(g *graph.CSR, batches int, _ uint64) [][]graph.Edge {
	sf := SpanningForest(g, 0)
	inSF := make(map[graph.Edge]bool, len(sf))
	for _, e := range sf {
		inSF[canon(e)] = true
	}
	var rest []graph.Edge
	for _, e := range g.Edges() {
		if !inSF[canon(e)] {
			rest = append(rest, e)
		}
	}
	if batches < 2 {
		batches = 2
	}
	half := batches / 2
	var out [][]graph.Edge
	for b := 0; b < half; b++ {
		lo, hi := len(sf)*b/half, len(sf)*(b+1)/half
		out = append(out, sf[lo:hi])
	}
	restBatches := batches - half
	for b := 0; b < restBatches; b++ {
		lo, hi := len(rest)*b/restBatches, len(rest)*(b+1)/restBatches
		out = append(out, rest[lo:hi])
	}
	return out
}

func canon(e graph.Edge) graph.Edge {
	if e.U > e.V {
		return graph.Edge{U: e.V, V: e.U}
	}
	return e
}

// AllStrategies returns the four partitioning strategies of Fig 6 in
// the paper's legend order.
func AllStrategies() []Strategy {
	return []Strategy{RowSampling{}, EdgeSampling{}, NeighborSampling{}, OptimalSampling{}}
}

// StrategyByName looks a strategy up by Name.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range AllStrategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("core: unknown strategy %q", name)
}

// newStrategyRNG is a tiny local SplitMix64; duplicated from internal/gen
// to keep the dependency arrow pointing gen -> core-free.
type strategyRNG struct{ s uint64 }

func newStrategyRNG(seed uint64) *strategyRNG { return &strategyRNG{s: seed} }

func (r *strategyRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *strategyRNG) intn(n int) int { return int(r.next() % uint64(n)) }
