package baselines

import (
	"testing"

	"afforest/internal/graph"
)

// Adversarial and degenerate topologies, each run through every
// algorithm in the registry. These catch the failure modes that random
// generators rarely produce: deep paths (LP iteration counts), maximal
// cliques (hook contention), stars with high-index centers (the §V-A
// link worst case), bridges between dense regions, and perfect
// matchings (maximal component counts).

func topoPath(n int) *graph.CSR {
	var edges []graph.Edge
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

func topoClique(n int) *graph.CSR {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
		}
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// topoStarHighCenter is the §V-A adversarial construction: the hub has
// the highest index, so every hook competes for it.
func topoStarHighCenter(n int) *graph.CSR {
	var edges []graph.Edge
	for v := 0; v < n-1; v++ {
		edges = append(edges, graph.Edge{U: graph.V(n - 1), V: graph.V(v)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// topoBridgedCliques joins two n-cliques by a single bridge edge.
func topoBridgedCliques(n int) *graph.CSR {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
			edges = append(edges, graph.Edge{U: graph.V(n + u), V: graph.V(n + v)})
		}
	}
	edges = append(edges, graph.Edge{U: graph.V(n - 1), V: graph.V(n)})
	return graph.Build(edges, graph.BuildOptions{NumVertices: 2 * n})
}

// topoMatching is n/2 disjoint edges: the maximum possible number of
// nontrivial components.
func topoMatching(n int) *graph.CSR {
	var edges []graph.Edge
	for v := 0; v+1 < n; v += 2 {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// topoBinaryTree is a complete binary tree: log-depth, no cycles.
func topoBinaryTree(n int) *graph.CSR {
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V((v - 1) / 2)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// topoCycle is a single n-cycle.
func topoCycle(n int) *graph.CSR {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V((v + 1) % n)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// topoBipartiteComplete is K_{a,b}.
func topoBipartiteComplete(a, b int) *graph.CSR {
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(a + v)})
		}
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: a + b})
}

func TestAllAlgorithmsOnAdversarialTopologies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.CSR
		want int // expected component count
	}{
		{"path-1000", topoPath(1000), 1},
		{"clique-60", topoClique(60), 1},
		{"star-high-center", topoStarHighCenter(500), 1},
		{"bridged-cliques", topoBridgedCliques(30), 1},
		{"matching-500", topoMatching(500), 250},
		{"binary-tree", topoBinaryTree(1023), 1},
		{"cycle-997", topoCycle(997), 1},
		{"bipartite-20x300", topoBipartiteComplete(20, 300), 1},
		{"single-vertex", graph.Build(nil, graph.BuildOptions{NumVertices: 1}), 1},
		{"two-vertices-one-edge", graph.Build([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{}), 1},
	}
	for _, tc := range cases {
		oracle, sizes := graph.SequentialCC(tc.g)
		_ = oracle
		if len(sizes) != tc.want {
			t.Fatalf("%s: oracle found %d components, test expects %d — fixture bug",
				tc.name, len(sizes), tc.want)
		}
		for _, alg := range All() {
			labels := alg.Run(tc.g, 4)
			assertPartitionMatchesOracle(t, tc.g, alg.Name+"/"+tc.name, labels)
		}
	}
}

func TestAlgorithmsOnPathConvergeReasonably(t *testing.T) {
	// SV on a long path: iteration count must stay far below the
	// diameter (the shortcut is full pointer-jumping).
	g := topoPath(4096)
	_, iters := SVInstrumented(g, 0, nil)
	if iters > 30 {
		t.Fatalf("SV iterations on path = %d, runaway", iters)
	}
}

func TestLPIterationCountOnPath(t *testing.T) {
	// LP genuinely pays the diameter: verify correctness on the shape
	// (the runtime cost is what Fig 6c/8a demonstrate).
	g := topoPath(512)
	labels := LP(g, 0)
	for v := range labels {
		if labels[v] != 0 {
			t.Fatalf("path vertex %d labeled %d", v, labels[v])
		}
	}
}
