// Package core implements Afforest, the paper's contribution: a
// restructured Shiloach–Vishkin connected-components algorithm whose
// link/compress primitives converge locally per edge (Section III),
// combined with vertex-neighbor subgraph sampling and large-component
// skipping (Section IV).
//
// The concurrency discipline follows the paper: the only write to a
// root is the hook π(h) ← l, performed with compare-and-swap, preserving
// Invariant 1 (π(x) ≤ x) and hence acyclicity (Lemmas 1–2). Every other
// write, a compress step or a link climb's halving step, points a
// non-root at an ancestor in its own tree. All shared reads and those
// writes go through sync/atomic so the implementation is data-race-free
// under the Go memory model (the C++ original relies on benign races
// instead).
package core

import (
	"sync/atomic"
	"unsafe"

	"afforest/internal/graph"
)

// Parent is the π array: a forest of parent pointers over vertex ids.
// Parent values are manipulated atomically; a Parent may be shared by
// any number of goroutines running Link and Compress concurrently.
type Parent []uint32

// NewParent returns π initialized to |V| self-pointing single-node trees
// (Fig 5, line 1). Initialization is sequential stores — the array is
// not yet shared.
func NewParent(n int) Parent {
	p := newParentUninit(n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// cacheLine is the alignment granularity for π: the coherence unit on
// every platform this repository targets.
const cacheLine = 64

// newParentUninit allocates a length-n π whose element 0 sits on a
// cache-line boundary, leaving initialization to the caller. The Go
// allocator only guarantees size-class alignment, so a bare
// make([]uint32, n) can start mid-line; then the compress pass's
// 512-vertex chunks end on line fragments shared with the neighboring
// worker's first entries — false sharing exactly at the boundaries
// every worker touches. Aligning the base makes every cacheLine/4-entry
// region line-exclusive. BenchmarkParentFalseSharing guards the
// property.
func newParentUninit(n int) Parent {
	if n == 0 {
		return Parent{}
	}
	const slack = cacheLine / 4
	buf := make([]uint32, n+slack-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		// []uint32 backing stores are always 4-byte aligned, so the
		// remainder is a whole number of elements.
		off = int((cacheLine - rem) / 4)
	}
	return Parent(buf[off : off+n : off+n])
}

// Aligned reports whether π's backing array starts on a cache-line
// boundary (vacuously true when empty).
func (p Parent) Aligned() bool {
	if len(p) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&p[0]))%cacheLine == 0
}

// Get atomically loads π(v).
func (p Parent) Get(v graph.V) graph.V {
	return atomic.LoadUint32(&p[v])
}

// set atomically stores π(v) ← x. Exported operations preserve
// Invariant 1; raw stores are internal.
func (p Parent) set(v, x graph.V) {
	atomic.StoreUint32(&p[v], x)
}

// cas attempts π(v): old → new atomically.
func (p Parent) cas(v, old, new graph.V) bool {
	return atomic.CompareAndSwapUint32(&p[v], old, new)
}

// Find walks parent pointers from v to the root of its tree without
// modifying π. Safe concurrently with Link/Compress: the path above any
// vertex only ever shortens or re-roots to an ancestor (Lemma 4), and
// Invariant 1 (π(x) ≤ x) rules out cycles, so the walk terminates.
func (p Parent) Find(v graph.V) graph.V {
	for {
		parent := p.Get(v)
		if parent == v {
			return v
		}
		v = parent
	}
}

// Depth returns the number of parent hops from v to its root. Used by
// the Table II instrumentation; not intended for hot paths.
func (p Parent) Depth(v graph.V) int {
	d := 0
	for {
		parent := p.Get(v)
		if parent == v {
			return d
		}
		v = parent
		d++
	}
}

// MaxDepth returns the maximum Depth over all vertices (the forest
// height reported in Table II).
func (p Parent) MaxDepth() int {
	max := 0
	for v := range p {
		if d := p.Depth(graph.V(v)); d > max {
			max = d
		}
	}
	return max
}

// CountTrees returns T, the number of trees in π (self-pointing roots).
// This is the quantity behind the Linkage convergence measure.
func (p Parent) CountTrees() int {
	t := 0
	for v := range p {
		if p.Get(graph.V(v)) == graph.V(v) {
			t++
		}
	}
	return t
}

// Validate checks Invariant 1 (π(x) ≤ x) for every vertex and returns
// the first violating vertex, or -1 if the invariant holds. Because the
// invariant implies acyclicity (Lemma 1), a passing Validate guarantees
// Find terminates.
func (p Parent) Validate() int {
	for v := range p {
		if p.Get(graph.V(v)) > graph.V(v) {
			return v
		}
	}
	return -1
}

// Labels flattens π into final component labels: after a full Compress
// pass every vertex points directly at its component's root, so the
// array itself is the labeling. Labels returns π reinterpreted as
// []graph.V without copying.
func (p Parent) Labels() []graph.V { return p }
