package testkit

import (
	"fmt"

	"afforest/internal/baselines"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

// Oracle computes ground-truth component labels for g with the
// sequential union-find, cross-checked against the independent BFS
// oracle (graph.SequentialCC). Two disagreeing oracles would mean the
// harness itself is broken, so that is a panic, not a test failure to
// attribute to the algorithm under test.
func Oracle(g *graph.CSR) []graph.V {
	labels := baselines.SerialUnionFind(g, 1)
	bfs, _ := graph.SequentialCC(g)
	bl := make([]graph.V, len(bfs))
	for v, l := range bfs {
		bl[v] = graph.V(l)
	}
	if err := validate.SamePartition(bl, labels); err != nil {
		panic(fmt.Sprintf("testkit: union-find and BFS oracles disagree: %v", err))
	}
	return labels
}

// CheckLabeling verifies labels completely against a precomputed
// oracle: edge consistency plus partition equivalence (labels may
// differ from the oracle's by any bijection). The error, when non-nil,
// is a *validate.Violation naming the invariant and its minimal witness.
func CheckLabeling(g *graph.CSR, labels, oracle []graph.V) error {
	if err := validate.EdgeConsistent(g, labels); err != nil {
		return err
	}
	return validate.SamePartition(oracle, labels)
}
