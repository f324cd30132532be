package validate

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

func TestEdgeConsistent(t *testing.T) {
	g := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	good := []graph.V{0, 0, 2, 2}
	if err := EdgeConsistent(g, good); err != nil {
		t.Fatalf("good labeling rejected: %v", err)
	}
	bad := []graph.V{0, 1, 2, 2}
	if err := EdgeConsistent(g, bad); err == nil {
		t.Fatal("split edge accepted")
	}
	if err := EdgeConsistent(g, []graph.V{0}); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestSamePartition(t *testing.T) {
	if err := SamePartition([]graph.V{0, 0, 5}, []graph.V{9, 9, 1}); err != nil {
		t.Fatalf("bijective relabeling rejected: %v", err)
	}
	// a splits what b merges.
	if err := SamePartition([]graph.V{0, 1}, []graph.V{7, 7}); err == nil {
		t.Fatal("coarser partition accepted")
	}
	// b splits what a merges.
	if err := SamePartition([]graph.V{3, 3}, []graph.V{0, 1}); err == nil {
		t.Fatal("finer partition accepted")
	}
	if err := SamePartition([]graph.V{0}, []graph.V{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLabelingFullCheck(t *testing.T) {
	g := gen.URandComponents(1000, 8, 0.5, 3)
	oracle, _ := graph.SequentialCC(g)
	labels := make([]graph.V, len(oracle))
	for v, l := range oracle {
		labels[v] = graph.V(l) + 100 // arbitrary bijection
	}
	if err := Labeling(g, labels); err != nil {
		t.Fatalf("correct labeling rejected: %v", err)
	}
	// Merge two components illegally: give everything one label. Edge
	// consistency still holds, so only the partition check catches it.
	allOne := make([]graph.V, len(labels))
	if err := Labeling(g, allOne); err == nil {
		t.Fatal("over-merged labeling accepted")
	}
}

func TestViolationWitnessesAreMinimal(t *testing.T) {
	// Two bad edges; the reported witness must be the lowest-id one.
	g := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	err := EdgeConsistent(g, []graph.V{0, 1, 2, 9})
	v, ok := AsViolation(err)
	if !ok {
		t.Fatalf("EdgeConsistent returned %T, want *Violation", err)
	}
	if v.Invariant != InvEdgeConsistent || v.EdgeU != 0 || v.EdgeV != 1 {
		t.Fatalf("witness = %+v, want edge 0-1", v)
	}

	err = ParentBound([]graph.V{0, 1, 2, 5, 6})
	v, _ = AsViolation(err)
	if v == nil || v.Invariant != InvParentBound || v.Vertex != 3 {
		t.Fatalf("ParentBound witness = %+v, want vertex 3", v)
	}

	err = SamePartition([]graph.V{0, 0, 1, 1}, []graph.V{5, 5, 5, 6})
	v, _ = AsViolation(err)
	if v == nil || v.Invariant != InvPartitionEqual || v.Vertex != 2 {
		t.Fatalf("SamePartition witness = %+v, want vertex 2", v)
	}
}

func TestParentBound(t *testing.T) {
	if err := ParentBound([]graph.V{0, 0, 1, 3}); err != nil {
		t.Fatalf("valid parent array rejected: %v", err)
	}
	if err := ParentBound(nil); err != nil {
		t.Fatalf("empty parent array rejected: %v", err)
	}
	if err := ParentBound([]graph.V{1}); err == nil {
		t.Fatal("π(0)=1 accepted")
	}
}

func TestIdempotent(t *testing.T) {
	if err := Idempotent([]graph.V{0, 0, 0, 3}); err != nil {
		t.Fatalf("flat forest rejected: %v", err)
	}
	// 2 -> 1 -> 0: depth two.
	err := Idempotent([]graph.V{0, 0, 1})
	v, _ := AsViolation(err)
	if v == nil || v.Invariant != InvIdempotent || v.Vertex != 2 {
		t.Fatalf("Idempotent witness = %+v, want vertex 2", v)
	}
	if err := Idempotent([]graph.V{7}); err == nil {
		t.Fatal("out-of-range parent accepted")
	}
}

func TestRefines(t *testing.T) {
	// {0,1},{2},{3} refines {0,1,2},{3}.
	if err := Refines([]graph.V{0, 0, 2, 3}, []graph.V{9, 9, 9, 4}); err != nil {
		t.Fatalf("finer partition rejected: %v", err)
	}
	// {0,1,2} does not refine {0,1},{2}.
	err := Refines([]graph.V{0, 0, 0}, []graph.V{5, 5, 6})
	v, _ := AsViolation(err)
	if v == nil || v.Invariant != InvRefinement || v.Vertex != 2 {
		t.Fatalf("Refines witness = %+v, want vertex 2", v)
	}
	if err := Refines([]graph.V{0}, []graph.V{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCensusEqual(t *testing.T) {
	a := ComputeCensus([]graph.V{1, 1, 2})
	b := ComputeCensus([]graph.V{7, 7, 9})
	if !a.Equal(b) {
		t.Fatalf("isomorphic censuses unequal: %+v vs %+v", a, b)
	}
	c := ComputeCensus([]graph.V{1, 2, 2})
	if len(c.Sizes) == len(a.Sizes) && a.Equal(c) && a.Sizes[0] != c.Sizes[0] {
		t.Fatal("different censuses compared equal")
	}
}

func TestComputeCensus(t *testing.T) {
	c := ComputeCensus([]graph.V{5, 5, 5, 2, 2, 9})
	if c.Components != 3 {
		t.Fatalf("components = %d", c.Components)
	}
	if c.Sizes[0] != 3 || c.Sizes[1] != 2 || c.Sizes[2] != 1 {
		t.Fatalf("sizes = %v (must be descending)", c.Sizes)
	}
	empty := ComputeCensus(nil)
	if empty.Components != 0 {
		t.Fatalf("empty census: %+v", empty)
	}
}

func TestSpanningForestValidator(t *testing.T) {
	g := gen.URandComponents(1500, 8, 0.5, 7)
	// A correct forest from the core extraction must validate. (The
	// validate package must not import core — build the forest the slow
	// way with a reference DSU.)
	parent := make([]graph.V, g.NumVertices())
	for i := range parent {
		parent[i] = graph.V(i)
	}
	var find func(graph.V) graph.V
	find = func(x graph.V) graph.V {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	var forest []graph.Edge
	for _, e := range g.Edges() {
		ra, rb := find(e.U), find(e.V)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
			forest = append(forest, e)
		}
	}
	if err := SpanningForest(g, forest); err != nil {
		t.Fatalf("correct forest rejected: %v", err)
	}
	// Too few edges.
	if err := SpanningForest(g, forest[:len(forest)-1]); err == nil {
		t.Fatal("undersized forest accepted")
	}
	// An edge not in the graph.
	bad := append(append([]graph.Edge{}, forest[:len(forest)-1]...), graph.Edge{U: 0, V: 0})
	if err := SpanningForest(g, bad); err == nil {
		t.Fatal("phantom edge accepted")
	}
	// Right count but contains a cycle (duplicate a tree edge, drop one).
	cyc := append(append([]graph.Edge{}, forest[:len(forest)-1]...), forest[0])
	if err := SpanningForest(g, cyc); err == nil {
		t.Fatal("cyclic forest accepted")
	}
}
