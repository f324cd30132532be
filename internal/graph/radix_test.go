package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRadixSortVMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500) + radixMinLen
		a := make([]V, n)
		for i := range a {
			switch trial % 3 {
			case 0:
				a[i] = V(rng.Uint32()) // full 32-bit range
			case 1:
				a[i] = V(rng.Intn(256)) // single active byte
			default:
				a[i] = V(rng.Intn(1 << 20))
			}
		}
		want := append([]V(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		radixSortV(a, make([]V, len(a)))
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestRadixSortVQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		a := make([]V, len(raw))
		copy(a, raw)
		want := append([]V(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(a) >= 2 {
			radixSortV(a, make([]V, len(a)))
		}
		for i := range a {
			if a[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionSortV(t *testing.T) {
	a := []V{5, 1, 4, 1, 9, 0}
	insertionSortV(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted: %v", a)
		}
	}
	insertionSortV(nil) // must not panic
}

func TestSortedUnique(t *testing.T) {
	if !sortedUnique([]V{1, 2, 5}) || !sortedUnique(nil) || !sortedUnique([]V{7}) {
		t.Fatal("sortedUnique false negative")
	}
	if sortedUnique([]V{1, 1}) || sortedUnique([]V{2, 1}) {
		t.Fatal("sortedUnique false positive")
	}
}

func TestBuilderProducesSortedAdjacencyAtAllDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Mix of tiny and huge adjacency lists crossing radixMinLen.
	var edges []Edge
	const n = 2000
	for v := 1; v < 200; v++ { // hub 0 with ~200 neighbors (radix path)
		edges = append(edges, Edge{0, V(v)})
	}
	for i := 0; i < 5000; i++ { // scattered small lists (insertion path)
		edges = append(edges, Edge{V(rng.Intn(n)), V(rng.Intn(n))})
	}
	g := Build(edges, BuildOptions{NumVertices: n})
	if !SortAdjacencyCheck(g) {
		t.Fatal("builder produced unsorted adjacency")
	}
}

func BenchmarkRadixSortV4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]V, 4096)
	for i := range base {
		base[i] = V(rng.Intn(1 << 22))
	}
	work, buf := make([]V, len(base)), make([]V, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		radixSortV(work, buf)
	}
}

func BenchmarkStdSort4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]V, 4096)
	for i := range base {
		base[i] = V(rng.Intn(1 << 22))
	}
	work := make([]V, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		sort.Slice(work, func(a, c int) bool { return work[a] < work[c] })
	}
}
