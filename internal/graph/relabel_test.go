package graph

import (
	"math/rand"
	"testing"
)

func TestPermuteIdentity(t *testing.T) {
	g := twoTriangles()
	perm := make([]V, g.NumVertices())
	for i := range perm {
		perm[i] = V(i)
	}
	g2 := Permute(g, perm, 0)
	assertSameGraph(t, g, g2)
}

func TestPermuteReverse(t *testing.T) {
	g := path5() // 0-1-2-3-4
	perm := []V{4, 3, 2, 1, 0}
	g2 := Permute(g, perm, 0)
	// Path reversed is still the same path shape.
	if g2.NumEdges() != 4 {
		t.Fatalf("|E| = %d", g2.NumEdges())
	}
	if !g2.HasEdge(4, 3) || !g2.HasEdge(0, 1) || g2.HasEdge(0, 4) {
		t.Fatal("reversed path edges wrong")
	}
	if g2.Degree(4) != 1 || g2.Degree(2) != 2 {
		t.Fatal("reversed degrees wrong")
	}
}

func TestPermutePreservesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 500
	var edges []Edge
	for i := 0; i < 900; i++ {
		edges = append(edges, Edge{V(rng.Intn(n)), V(rng.Intn(n))})
	}
	g := Build(edges, BuildOptions{NumVertices: n})
	perm := make([]V, n)
	for i := range perm {
		perm[i] = V(i)
	}
	rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	g2 := Permute(g, perm, 0)

	l1, s1 := SequentialCC(g)
	l2, s2 := SequentialCC(g2)
	if len(s1) != len(s2) {
		t.Fatalf("component count changed: %d vs %d", len(s1), len(s2))
	}
	// Partition must map through the permutation.
	seen := map[int32]int32{}
	for v := 0; v < n; v++ {
		if mapped, ok := seen[l1[v]]; ok {
			if mapped != l2[perm[v]] {
				t.Fatalf("partition broken at %d", v)
			}
		} else {
			seen[l1[v]] = l2[perm[v]]
		}
	}
}

func TestPermuteRejectsBadPerm(t *testing.T) {
	g := path5()
	for _, perm := range [][]V{
		{0, 1, 2},       // wrong length
		{0, 0, 1, 2, 3}, // duplicate
		{0, 1, 2, 3, 9}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v: want panic", perm)
				}
			}()
			Permute(g, perm, 0)
		}()
	}
}

func TestRelabelByDegreeOrdersHubsFirst(t *testing.T) {
	// Star: center must become vertex 0.
	var edges []Edge
	for v := V(1); v <= 20; v++ {
		edges = append(edges, Edge{20, v - 1}) // center is id 20
	}
	g := Build(edges, BuildOptions{})
	g2, perm := RelabelByDegree(g, 0)
	if perm[20] != 0 {
		t.Fatalf("center relabeled to %d, want 0", perm[20])
	}
	if g2.Degree(0) != 20 {
		t.Fatalf("new vertex 0 degree = %d", g2.Degree(0))
	}
	// Degrees must be non-increasing in new id order.
	for v := 1; v < g2.NumVertices(); v++ {
		if g2.Degree(V(v)) > g2.Degree(V(v-1)) {
			t.Fatalf("degree order violated at %d", v)
		}
	}
}
