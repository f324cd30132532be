package dist

import (
	"testing"

	"afforest/internal/graph"
)

// TestPartitioningProperties sweeps (n, numNodes) combinations —
// including numNodes > n, numNodes ≤ 0, and n == 0 — and checks the
// contract the cluster router builds on: the ranges are contiguous,
// non-overlapping, exhaustive over [0, n), consistent with Owner, and
// stable across independent constructions.
func TestPartitioningProperties(t *testing.T) {
	ns := []int{0, 1, 2, 3, 5, 7, 8, 15, 16, 17, 63, 64, 65, 100, 1000, 4095, 4096, 4097}
	nodeCounts := []int{-3, 0, 1, 2, 3, 4, 5, 7, 8, 16, 17, 64, 100, 1001}
	for _, n := range ns {
		for _, numNodes := range nodeCounts {
			p := NewPartitioning(n, numNodes)
			if p.NumNodes < 1 {
				t.Fatalf("n=%d nodes=%d: NumNodes=%d < 1", n, numNodes, p.NumNodes)
			}
			if n > 0 && p.NumNodes > n {
				t.Fatalf("n=%d nodes=%d: NumNodes=%d exceeds vertex count", n, numNodes, p.NumNodes)
			}

			// Contiguous + exhaustive: ranges tile [0, n) in id order.
			prev := 0
			for id := 0; id < p.NumNodes; id++ {
				lo, hi := p.Range(id)
				if lo != prev {
					t.Fatalf("n=%d nodes=%d: range %d starts at %d, want %d (gap or overlap)",
						n, numNodes, id, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d nodes=%d: range %d is [%d,%d)", n, numNodes, id, lo, hi)
				}
				// Owner agrees with Range for every owned vertex.
				for v := lo; v < hi; v++ {
					if got := p.Owner(graph.V(v)); got != id {
						t.Fatalf("n=%d nodes=%d: Owner(%d)=%d, want %d", n, numNodes, v, got, id)
					}
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d nodes=%d: ranges cover [0,%d), want [0,%d)", n, numNodes, prev, n)
			}

			// Owner stays in bounds over the whole vertex space.
			for v := 0; v < n; v++ {
				if o := p.Owner(graph.V(v)); o < 0 || o >= p.NumNodes {
					t.Fatalf("n=%d nodes=%d: Owner(%d)=%d out of [0,%d)", n, numNodes, v, o, p.NumNodes)
				}
			}

			// Stable: an independent construction is identical field by
			// field — the wire protocol reconstructs partitions from
			// (n, numNodes) alone and must land on the same ranges.
			q := NewPartitioning(n, numNodes)
			if q != p {
				t.Fatalf("n=%d nodes=%d: partitioning not stable: %+v vs %+v", n, numNodes, p, q)
			}
		}
	}
}

// TestPartitioningFewerVerticesThanNodes pins the clamp: with n < numNodes
// every vertex still has exactly one owner and NumNodes shrinks to n.
func TestPartitioningFewerVerticesThanNodes(t *testing.T) {
	p := NewPartitioning(3, 10)
	if p.NumNodes != 3 {
		t.Fatalf("NumNodes=%d, want 3", p.NumNodes)
	}
	for v := 0; v < 3; v++ {
		lo, hi := p.Range(v)
		if lo != v || hi != v+1 {
			t.Fatalf("Range(%d)=[%d,%d), want [%d,%d)", v, lo, hi, v, v+1)
		}
	}
}

func TestPartitioningOwnerAndRange(t *testing.T) {
	p := NewPartitioning(100, 4)
	seen := 0
	for id := 0; id < p.NumNodes; id++ {
		lo, hi := p.Range(id)
		for v := lo; v < hi; v++ {
			if p.Owner(graph.V(v)) != id {
				t.Fatalf("vertex %d: owner %d, range says %d", v, p.Owner(graph.V(v)), id)
			}
			seen++
		}
	}
	if seen != 100 {
		t.Fatalf("ranges cover %d vertices, want 100", seen)
	}
}

func TestPartitioningEdgeCases(t *testing.T) {
	p := NewPartitioning(3, 10) // more nodes than vertices
	if p.NumNodes != 3 {
		t.Fatalf("nodes clamped to %d, want 3", p.NumNodes)
	}
	p = NewPartitioning(10, 0) // degenerate node count
	if p.NumNodes != 1 {
		t.Fatalf("nodes = %d, want 1", p.NumNodes)
	}
	lo, hi := p.Range(0)
	if lo != 0 || hi != 10 {
		t.Fatalf("range = [%d,%d)", lo, hi)
	}
}
