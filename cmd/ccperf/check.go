package main

import (
	"encoding/json"
	"fmt"

	"afforest/internal/baselines"
	"afforest/internal/graph"
	"afforest/internal/provenance"
	"afforest/internal/testkit"
)

// Correctness checks. They run outside every timed interval; a failure
// makes the run print "correct": false and exit non-zero.

// oracle returns the min-id component labels of g plus extra edges,
// computed by the serial union-find baseline.
func oracle(g *graph.CSR, extra []graph.Edge) []graph.V {
	if len(extra) == 0 {
		return baselines.SerialUnionFind(g, 1)
	}
	all := append(g.Edges(), extra...)
	return baselines.SerialUnionFind(graph.Build(all, graph.BuildOptions{NumVertices: g.NumVertices()}), 1)
}

// checkLabels reports the first vertex whose label differs from the
// oracle's. Both sides are canonical min-id labelings, so equal
// partitions give equal slices.
func checkLabels(what string, got, want []graph.V) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d labels, oracle has %d", what, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("%s: vertex %d labeled %d, oracle says %d", what, v, got[v], want[v])
		}
	}
	return nil
}

// explainBody is the part of a GET /explain response the witness check
// reads.
type explainBody struct {
	U         graph.V          `json:"u"`
	V         graph.V          `json:"v"`
	Connected bool             `json:"connected"`
	Witness   []provenance.Hop `json:"witness"`
}

// checkExplain verifies one /explain response: a witness, when present,
// must be a path of submitted edges from u to v. It returns the hop
// count (0 without a witness).
func checkExplain(body []byte, edges testkit.EdgeSet) (int, error) {
	var e explainBody
	if err := json.Unmarshal(body, &e); err != nil {
		return 0, fmt.Errorf("explain: bad body %q: %w", body, err)
	}
	if e.Witness == nil {
		return 0, nil
	}
	if !e.Connected {
		return 0, fmt.Errorf("explain %d⇝%d: witness for a pair reported not connected", e.U, e.V)
	}
	if err := testkit.CheckWitness(e.U, e.V, e.Witness, edges); err != nil {
		return 0, err
	}
	return len(e.Witness), nil
}
