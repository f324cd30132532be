package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"afforest/internal/graph"
)

// refDSU is a minimal, obviously correct disjoint-set reference used to
// check Parent under arbitrary operation sequences.
type refDSU struct{ parent []int }

func newRefDSU(n int) *refDSU {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &refDSU{parent: p}
}

func (d *refDSU) find(x int) int {
	for d.parent[x] != x {
		x = d.parent[x]
	}
	return x
}

func (d *refDSU) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra < rb {
		d.parent[rb] = ra
	} else if rb < ra {
		d.parent[ra] = rb
	}
}

// TestParentOpSequenceQuick drives Parent through random interleavings
// of Link, Compress, CompressFrom and Find, checking after every
// operation that (a) Invariant 1 holds and (b) the induced partition
// matches the reference DSU. Compression operations must never change
// the partition.
func TestParentOpSequenceQuick(t *testing.T) {
	f := func(ops []uint32, nSeed uint8) bool {
		n := int(nSeed)%30 + 2
		p := NewParent(n)
		ref := newRefDSU(n)
		for _, raw := range ops {
			kind := raw % 4
			a := graph.V(int(raw/4) % n)
			b := graph.V(int(raw/64) % n)
			switch kind {
			case 0:
				Link(p, a, b)
				ref.union(int(a), int(b))
			case 1:
				Compress(p, a)
			case 2:
				CompressFrom(p, a, p.Get(a))
			case 3:
				if (p.Find(a) == p.Find(b)) != (ref.find(int(a)) == ref.find(int(b))) {
					return false
				}
			}
			if p.Validate() >= 0 {
				return false
			}
		}
		// Final partitions must coincide exactly.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (p.Find(graph.V(u)) == p.Find(graph.V(v))) != (ref.find(u) == ref.find(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestParentOpSequenceLongRandom is the same idea at higher volume with
// a seeded generator (quick's default value distribution is shallow for
// long sequences).
func TestParentOpSequenceLongRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 200
	for trial := 0; trial < 20; trial++ {
		p := NewParent(n)
		ref := newRefDSU(n)
		for op := 0; op < 2000; op++ {
			a := graph.V(rng.Intn(n))
			b := graph.V(rng.Intn(n))
			switch rng.Intn(4) {
			case 0, 1: // bias toward linking
				Link(p, a, b)
				ref.union(int(a), int(b))
			case 2:
				Compress(p, a)
			case 3:
				CompressFrom(p, a, p.Get(a))
			}
		}
		if bad := p.Validate(); bad >= 0 {
			t.Fatalf("trial %d: invariant violated at %d", trial, bad)
		}
		for u := 0; u < n; u++ {
			if p.Find(graph.V(u)) != graph.V(ref.find(u)) {
				t.Fatalf("trial %d: root of %d is %d, reference says %d — minimum-id roots must coincide",
					trial, u, p.Find(graph.V(u)), ref.find(u))
			}
		}
	}
}
