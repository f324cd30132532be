package graph

import (
	"math/rand"
	"testing"
)

func TestSequentialCCTwoTriangles(t *testing.T) {
	g := twoTriangles()
	labels, sizes := SequentialCC(g)
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3 (two triangles + isolated)", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first triangle split")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("second triangle split")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] || labels[3] == labels[6] {
		t.Fatal("distinct components merged")
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.NumVertices() {
		t.Fatalf("sizes sum to %d, want %d", total, g.NumVertices())
	}
}

func TestBFSDistancesPath(t *testing.T) {
	g := path5()
	dist, far, ecc := BFSDistances(g, 0)
	for v := 0; v < 5; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if far != 4 || ecc != 4 {
		t.Fatalf("far=%d ecc=%d, want 4,4", far, ecc)
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := twoTriangles()
	dist, _, _ := BFSDistances(g, 0)
	if dist[3] != -1 || dist[6] != -1 {
		t.Fatal("unreachable vertices must stay at -1")
	}
	if dist[1] != 1 || dist[2] != 1 {
		t.Fatal("triangle distances wrong")
	}
}

func TestApproxDiameterExactOnPath(t *testing.T) {
	g := path5()
	if d := ApproxDiameter(g, 3, 1); d != 4 {
		t.Fatalf("path diameter estimate = %d, want 4 (double sweep is exact on trees)", d)
	}
}

func TestComputeStatsPath(t *testing.T) {
	s := ComputeStats(path5(), 1)
	if s.NumVertices != 5 || s.NumEdges != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Fatalf("degree range: %+v", s)
	}
	if s.Components != 1 || s.MaxComponent != 5 || s.MaxCompFrac != 1.0 {
		t.Fatalf("component stats: %+v", s)
	}
	if s.ApproxDiam != 4 {
		t.Fatalf("diameter: %+v", s)
	}
	if s.NumIsolated != 0 {
		t.Fatalf("isolated: %+v", s)
	}
}

func TestComputeStatsIsolated(t *testing.T) {
	s := ComputeStats(twoTriangles(), 1)
	if s.NumIsolated != 1 || s.Components != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MaxComponent != 3 {
		t.Fatalf("max component: %+v", s)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(Build(nil, BuildOptions{}), 1)
	if s.NumVertices != 0 || s.Components != 0 || s.MinDegree != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

func TestSequentialCCRandomSizesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	edges := make([]Edge, 3000)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	g := Build(edges, BuildOptions{NumVertices: n})
	labels, sizes := SequentialCC(g)
	counted := make([]int, len(sizes))
	for _, l := range labels {
		counted[l]++
	}
	for i := range sizes {
		if counted[i] != sizes[i] {
			t.Fatalf("component %d: size %d, counted %d", i, sizes[i], counted[i])
		}
	}
	// Every edge must join same-label endpoints.
	for u := V(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if labels[u] != labels[v] {
				t.Fatalf("edge %d-%d crosses labels", u, v)
			}
		}
	}
}
