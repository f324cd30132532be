package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// path5 is 0-1-2-3-4.
func path5() *CSR {
	return Build([]Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, BuildOptions{})
}

// twoTriangles is {0,1,2} and {3,4,5} plus isolated vertex 6.
func twoTriangles() *CSR {
	return Build([]Edge{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}},
		BuildOptions{NumVertices: 7})
}

func TestEmptyGraph(t *testing.T) {
	g := Build(nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumArcs() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	var zero CSR
	if zero.NumVertices() != 0 || zero.NumArcs() != 0 {
		t.Fatal("zero-value CSR not empty")
	}
}

func TestPathStructure(t *testing.T) {
	g := path5()
	if g.NumVertices() != 5 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Fatalf("path: %v", g)
	}
	wantDeg := []int{1, 2, 2, 2, 1}
	for v, d := range wantDeg {
		if g.Degree(V(v)) != d {
			t.Fatalf("deg(%d) = %d, want %d", v, g.Degree(V(v)), d)
		}
	}
	if nb := g.Neighbors(1); len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(1) = %v (adjacency must be sorted)", nb)
	}
	if g.Neighbor(1, 0) != 0 || g.Neighbor(1, 1) != 2 {
		t.Fatal("positional Neighbor accessor wrong")
	}
}

func TestBuildSymmetrizes(t *testing.T) {
	g := Build([]Edge{{0, 1}}, BuildOptions{})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not stored in both directions")
	}
}

func TestBuildDeduplicates(t *testing.T) {
	g := Build([]Edge{{0, 1}, {0, 1}, {1, 0}}, BuildOptions{})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	gk := Build([]Edge{{0, 1}, {0, 1}}, BuildOptions{KeepDuplicates: true})
	if gk.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 with KeepDuplicates", gk.NumEdges())
	}
}

func TestBuildDropsSelfLoops(t *testing.T) {
	g := Build([]Edge{{0, 0}, {0, 1}}, BuildOptions{})
	if g.NumEdges() != 1 || g.HasEdge(0, 0) {
		t.Fatalf("self loop survived: %v", g)
	}
	gk := Build([]Edge{{0, 0}, {0, 1}}, BuildOptions{KeepSelfLoops: true, KeepDuplicates: true})
	if gk.Degree(0) != 3 { // self loop contributes two arc slots
		t.Fatalf("deg(0) = %d, want 3 with self loop kept", gk.Degree(0))
	}
}

func TestBuildInfersNumVertices(t *testing.T) {
	g := Build([]Edge{{2, 9}}, BuildOptions{})
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestBuildDropsOutOfRangeEdges(t *testing.T) {
	g := Build([]Edge{{0, 1}, {0, 5}}, BuildOptions{NumVertices: 3})
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Fatalf("out-of-range edge not dropped: %v", g)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := twoTriangles()
	edges := g.Edges()
	if len(edges) != 6 {
		t.Fatalf("Edges() returned %d, want 6", len(edges))
	}
	g2 := Build(edges, BuildOptions{NumVertices: g.NumVertices()})
	if g2.NumArcs() != g.NumArcs() {
		t.Fatalf("round-trip arcs %d != %d", g2.NumArcs(), g.NumArcs())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(V(v)), g2.Neighbors(V(v))
		if len(a) != len(b) {
			t.Fatalf("deg mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestHasEdgeLargeSorted(t *testing.T) {
	// Star with center 0 and 100 leaves: exercises the binary-search path.
	var edges []Edge
	for v := V(1); v <= 100; v++ {
		edges = append(edges, Edge{0, v})
	}
	g := Build(edges, BuildOptions{})
	for v := V(1); v <= 100; v++ {
		if !g.HasEdge(0, v) || !g.HasEdge(v, 0) {
			t.Fatalf("missing edge 0-%d", v)
		}
	}
	if g.HasEdge(1, 2) || g.HasEdge(0, 0) {
		t.Fatal("phantom edge")
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		targets []V
	}{
		{"empty offsets", nil, nil},
		{"nonzero first", []int64{1, 1}, []V{0}},
		{"decreasing", []int64{0, 2, 1}, []V{0, 1}},
		{"length mismatch", []int64{0, 1}, []V{0, 0}},
		{"target out of range", []int64{0, 1}, []V{5}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCSR did not panic", tc.name)
				}
			}()
			NewCSR(tc.offsets, tc.targets)
		}()
	}
	// A valid assembly must not panic.
	g := NewCSR([]int64{0, 1, 2}, []V{1, 0})
	if g.NumEdges() != 1 {
		t.Fatalf("valid NewCSR: %v", g)
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]V{{1, 2}, {}, {}})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("FromAdjacency: %v", g)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 0) {
		t.Fatal("FromAdjacency did not symmetrize")
	}
}

// TestBuildMatchesReferenceQuick cross-checks the parallel builder
// against a simple map-based reference on random edge lists.
func TestBuildMatchesReferenceQuick(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := int(nSeed)%50 + 1
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{V(int(raw[i]) % n), V(int(raw[i+1]) % n)})
		}
		g := Build(edges, BuildOptions{NumVertices: n})

		ref := make(map[V]map[V]bool)
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			if ref[e.U] == nil {
				ref[e.U] = map[V]bool{}
			}
			if ref[e.V] == nil {
				ref[e.V] = map[V]bool{}
			}
			ref[e.U][e.V] = true
			ref[e.V][e.U] = true
		}
		for v := 0; v < n; v++ {
			adj := g.Neighbors(V(v))
			if len(adj) != len(ref[V(v)]) {
				return false
			}
			if !sort.SliceIsSorted(adj, func(a, b int) bool { return adj[a] < adj[b] }) {
				return false
			}
			for _, w := range adj {
				if !ref[V(v)][w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLargeRandomParallelConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	edges := make([]Edge, 20_000)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	g1 := Build(edges, BuildOptions{NumVertices: n, Parallelism: 1})
	g8 := Build(edges, BuildOptions{NumVertices: n, Parallelism: 8})
	if g1.NumArcs() != g8.NumArcs() {
		t.Fatalf("arc count differs: %d vs %d", g1.NumArcs(), g8.NumArcs())
	}
	for v := 0; v < n; v++ {
		a, b := g1.Neighbors(V(v)), g8.Neighbors(V(v))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: parallel build differs from serial", v)
			}
		}
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	edges := make([]Edge, 100_000)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(edges, BuildOptions{NumVertices: n})
	}
}

// TestAdjacencyMatchesAccessors pins the raw-slice view the hot loops
// iterate against the accessor interface it replaces.
func TestAdjacencyMatchesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 200
	edges := make([]Edge, 600)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	g := Build(edges, BuildOptions{NumVertices: n})

	offsets, targets := g.Adjacency(0, n)
	if len(offsets) != n+1 {
		t.Fatalf("len(offsets) = %d, want %d", len(offsets), n+1)
	}
	for v := 0; v < n; v++ {
		if got, want := int(offsets[v+1]-offsets[v]), g.Degree(V(v)); got != want {
			t.Fatalf("vertex %d: degree %d via Adjacency, %d via Degree", v, got, want)
		}
		for k := offsets[v]; k < offsets[v+1]; k++ {
			if got, want := targets[k], g.Neighbor(V(v), int(k-offsets[v])); got != want {
				t.Fatalf("vertex %d arc %d: %d via Adjacency, %d via Neighbor", v, k, got, want)
			}
		}
	}

	// A sub-range view: offsets stay absolute indices into targets.
	lo, hi := 50, 120
	sub, subTargets := g.Adjacency(lo, hi)
	if len(sub) != hi-lo+1 {
		t.Fatalf("len(sub) = %d, want %d", len(sub), hi-lo+1)
	}
	for v := lo; v < hi; v++ {
		adj := subTargets[sub[v-lo]:sub[v-lo+1]]
		want := g.Neighbors(V(v))
		if len(adj) != len(want) {
			t.Fatalf("vertex %d: sub-range adjacency length %d, want %d", v, len(adj), len(want))
		}
		for i := range adj {
			if adj[i] != want[i] {
				t.Fatalf("vertex %d: sub-range adjacency differs at %d", v, i)
			}
		}
	}
}
