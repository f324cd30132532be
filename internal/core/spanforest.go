package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// SpanningForest extracts a spanning forest of g using the duality of
// Section IV-A: run Afforest's link over all edges and keep exactly the
// edges whose link performed a tree merge. The result has |V| − C edges,
// preserves connectivity, and is acyclic.
func SpanningForest(g *graph.CSR, parallelism int) []graph.Edge {
	n := g.NumVertices()
	p := NewParent(n)
	workers := workerCount(parallelism)
	perWorker := make([][]graph.Edge, workers)
	concurrent.ForWorker(n, parallelism, 512, func(i, w int) {
		u := graph.V(i)
		for _, v := range g.Neighbors(u) {
			if u == v {
				continue // self loops never merge
			}
			if _, loser, _, _ := link[halving](p, u, v); loser != 0 {
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
