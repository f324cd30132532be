// Package validate checks connected-components labelings: partition
// equivalence between two labelings, edge consistency against the
// graph, forest invariants (π(x) ≤ x, compress idempotence, partition
// refinement), and component censuses. The benchmark harness validates
// every algorithm's output against the serial oracle before trusting
// its timing, and the correctness harness (internal/testkit) audits
// these invariants at every phase boundary of an instrumented run.
//
// Every check reports failure as a *Violation: a structured error
// naming which invariant broke together with a minimal witness — the
// lowest-id offending vertex or edge — so a failing differential run
// points straight at the vertex to debug rather than at "labels
// differ somewhere".
package validate

import (
	"errors"
	"fmt"
	"sort"

	"afforest/internal/graph"
)

// Invariant names carried by Violation. The set covers both final-label
// checks and the mid-run forest invariants of the paper's Lemmas 1–5.
const (
	InvLength         = "label-length"          // labeling has one entry per vertex
	InvEdgeConsistent = "edge-consistency"      // every edge joins equal labels
	InvPartitionEqual = "partition-equivalence" // two labelings induce the same partition
	InvParentBound    = "parent-bound"          // Invariant 1: π(x) ≤ x (implies acyclicity, Lemma 1)
	InvIdempotent     = "compress-idempotence"  // π(π(x)) = π(x): all trees at depth ≤ 1
	InvRefinement     = "partition-refinement"  // fine partition never merges distinct coarse classes
	InvForest         = "spanning-forest"       // forest edge set invariants
)

// Violation is a structured invariant failure. Vertex is the minimal
// witness vertex (-1 when the witness is an edge or global); EdgeU/EdgeV
// are the witness edge endpoints (-1/-1 when the witness is a vertex).
// It implements error; callers that only need pass/fail keep their
// plain nil checks, while the harness unwraps the witness for replay
// reports.
type Violation struct {
	Invariant string
	Vertex    int
	EdgeU     int
	EdgeV     int
	Detail    string
}

func (x *Violation) Error() string {
	switch {
	case x.EdgeU >= 0:
		return fmt.Sprintf("validate: %s violated at edge %d-%d: %s", x.Invariant, x.EdgeU, x.EdgeV, x.Detail)
	case x.Vertex >= 0:
		return fmt.Sprintf("validate: %s violated at vertex %d: %s", x.Invariant, x.Vertex, x.Detail)
	default:
		return fmt.Sprintf("validate: %s violated: %s", x.Invariant, x.Detail)
	}
}

func vertexViolation(inv string, v int, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Vertex: v, EdgeU: -1, EdgeV: -1, Detail: fmt.Sprintf(format, args...)}
}

func edgeViolation(inv string, u, v int, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Vertex: -1, EdgeU: u, EdgeV: v, Detail: fmt.Sprintf(format, args...)}
}

func globalViolation(inv string, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Vertex: -1, EdgeU: -1, EdgeV: -1, Detail: fmt.Sprintf(format, args...)}
}

// AsViolation unwraps err into a *Violation when one is anywhere in
// its chain (every non-nil error returned by this package is one;
// callers such as the phase auditor wrap them with context).
func AsViolation(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// EdgeConsistent verifies that every edge of g joins equally labeled
// endpoints; the returned *Violation names the minimal offending edge.
// This is a necessary condition for a correct CC labeling (labels may
// still be too coarse — see SamePartition for the full check).
func EdgeConsistent(g *graph.CSR, labels []graph.V) error {
	if len(labels) != g.NumVertices() {
		return globalViolation(InvLength, "%d labels for %d vertices", len(labels), g.NumVertices())
	}
	for u := graph.V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if labels[u] != labels[v] {
				return edgeViolation(InvEdgeConsistent, int(u), int(v),
					"labels %d vs %d", labels[u], labels[v])
			}
		}
	}
	return nil
}

// SamePartition reports whether two labelings induce the same partition
// of the vertex set (labels themselves may differ by any bijection).
// The witness is the minimal vertex at which the label correspondence
// stops being bijective.
func SamePartition(a, b []graph.V) error {
	if len(a) != len(b) {
		return globalViolation(InvLength, "length mismatch %d vs %d", len(a), len(b))
	}
	fwd := make(map[graph.V]graph.V)
	rev := make(map[graph.V]graph.V)
	for v := range a {
		if mapped, ok := fwd[a[v]]; ok {
			if mapped != b[v] {
				return vertexViolation(InvPartitionEqual, v,
					"label %d (a) maps to both %d and %d (b): a splits what b merges", a[v], mapped, b[v])
			}
		} else {
			fwd[a[v]] = b[v]
		}
		if mapped, ok := rev[b[v]]; ok {
			if mapped != a[v] {
				return vertexViolation(InvPartitionEqual, v,
					"label %d (b) maps to both %d and %d (a): b splits what a merges", b[v], mapped, a[v])
			}
		} else {
			rev[b[v]] = a[v]
		}
	}
	return nil
}

// ParentBound checks Invariant 1 of the paper — π(x) ≤ x for every
// vertex — on a parent/label array. The invariant rules out cycles
// (Lemma 1), so a passing ParentBound guarantees root walks terminate.
// The witness is the minimal violating vertex.
func ParentBound(p []graph.V) error {
	for v := range p {
		if p[v] > graph.V(v) {
			return vertexViolation(InvParentBound, v, "π(%d) = %d > %d", v, p[v], v)
		}
	}
	return nil
}

// Idempotent checks that a parent array is fully compressed: π(π(x)) =
// π(x), i.e. every tree has depth ≤ 1. This must hold after every full
// compress pass (Theorem 2) and is what makes π directly usable as a
// labeling. The witness is the minimal vertex whose parent is not a
// root.
func Idempotent(p []graph.V) error {
	n := graph.V(len(p))
	for v := range p {
		pv := p[v]
		if pv >= n {
			return vertexViolation(InvParentBound, v, "π(%d) = %d out of range (|V|=%d)", v, pv, n)
		}
		if p[pv] != pv {
			return vertexViolation(InvIdempotent, v,
				"π(%d) = %d but π(%d) = %d: tree deeper than one level", v, pv, pv, p[pv])
		}
	}
	return nil
}

// Refines checks that partition `fine` refines partition `coarse`:
// vertices sharing a fine label always share a coarse label. Mid-run,
// Afforest's π (with parents resolved to roots) must refine the
// ground-truth component partition at every phase boundary — trees only
// ever contain genuinely connected vertices; the final phase then
// coarsens it to equality. The witness is the minimal vertex whose fine
// class spans two coarse classes.
func Refines(fine, coarse []graph.V) error {
	if len(fine) != len(coarse) {
		return globalViolation(InvLength, "length mismatch %d vs %d", len(fine), len(coarse))
	}
	rep := make(map[graph.V]graph.V)
	for v := range fine {
		if c, ok := rep[fine[v]]; ok {
			if c != coarse[v] {
				return vertexViolation(InvRefinement, v,
					"fine class %d spans coarse classes %d and %d: merged vertices that are not connected",
					fine[v], c, coarse[v])
			}
		} else {
			rep[fine[v]] = coarse[v]
		}
	}
	return nil
}

// Labeling verifies labels against g completely: edge consistency plus
// partition equivalence with the sequential BFS oracle.
func Labeling(g *graph.CSR, labels []graph.V) error {
	if err := EdgeConsistent(g, labels); err != nil {
		return err
	}
	oracle, _ := graph.SequentialCC(g)
	ol := make([]graph.V, len(oracle))
	for v, l := range oracle {
		ol[v] = graph.V(l)
	}
	return SamePartition(ol, labels)
}

// Census summarizes a labeling: component count and sizes in
// descending order.
type Census struct {
	Components int
	Sizes      []int // descending
}

// ComputeCensus counts components and their sizes from labels.
func ComputeCensus(labels []graph.V) Census {
	counts := make(map[graph.V]int)
	for _, l := range labels {
		counts[l]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return Census{Components: len(counts), Sizes: sizes}
}

// Equal reports whether two censuses are identical (same component
// count and the same multiset of sizes).
func (c Census) Equal(o Census) bool {
	if c.Components != o.Components || len(c.Sizes) != len(o.Sizes) {
		return false
	}
	for i := range c.Sizes {
		if c.Sizes[i] != o.Sizes[i] {
			return false
		}
	}
	return true
}

// SpanningForest verifies that forest is a spanning forest of g: every
// edge exists in g, the edge count is exactly |V| − C, the forest is
// acyclic, and it preserves g's connectivity partition.
func SpanningForest(g *graph.CSR, forest []graph.Edge) error {
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			return edgeViolation(InvForest, int(e.U), int(e.V), "forest edge not in graph")
		}
	}
	_, sizes := graph.SequentialCC(g)
	want := g.NumVertices() - len(sizes)
	if len(forest) != want {
		return globalViolation(InvForest, "forest has %d edges, want |V|-C = %d", len(forest), want)
	}
	fg := graph.Build(forest, graph.BuildOptions{NumVertices: g.NumVertices()})
	_, fsizes := graph.SequentialCC(fg)
	// Acyclic: |E| = |V| - C(forest).
	if int(fg.NumEdges()) != g.NumVertices()-len(fsizes) {
		return globalViolation(InvForest, "forest contains a cycle (|E|=%d, |V|-C=%d)",
			fg.NumEdges(), g.NumVertices()-len(fsizes))
	}
	// Connectivity preserved: component counts match (the forest is a
	// subgraph, so it can only be finer; equal counts force equality).
	if len(fsizes) != len(sizes) {
		return globalViolation(InvForest, "forest has %d components, graph has %d", len(fsizes), len(sizes))
	}
	return nil
}
