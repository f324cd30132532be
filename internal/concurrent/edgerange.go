package concurrent

// DefaultEdgeGrain is the default number of arcs per chunk in
// ForEdgeRange: large enough to amortize the ticket fetch-add and the
// two binary searches per chunk, small enough that even one hub vertex
// splinters into many chunks.
const DefaultEdgeGrain = 8192

// ForEdgeRange distributes the arc domain of a CSR across workers in
// chunks of ~grain arcs. offsets is the CSR row-offset array (length
// n+1, non-decreasing, offsets[0] == 0); the arc domain is
// [0, offsets[n]).
//
// Vertex-chunked scheduling assigns a power-law hub and a degree-1
// vertex the same scheduling weight, so one chunk containing a hub
// serializes a large fraction of the edge work. ForEdgeRange instead
// claims fixed-size arc ranges [alo, ahi) and translates each to its
// covering vertex range [vlo, vhi) by binary search over offsets, so
// per-chunk work is ~grain arcs regardless of skew. A high-degree
// vertex's adjacency is split across chunks; bodies must therefore clip
// each vertex's arc range to [alo, ahi):
//
//	for u := vlo; u < vhi; u++ {
//		lo, hi := offsets[u], offsets[u+1]
//		if lo < alo { lo = alo }
//		if hi > ahi { hi = ahi }
//		for k := lo; k < hi; k++ { ... targets[k] ... }
//	}
//
// Every arc is visited exactly once across all chunks. Vertices with no
// arcs in the chunk contribute nothing (their clipped range is empty).
// grain <= 0 means DefaultEdgeGrain; p <= 0 means GOMAXPROCS. Jobs run
// on the default pool.
func ForEdgeRange(offsets []int64, p, grain int, body func(vlo, vhi int, alo, ahi int64, worker int)) {
	DefaultPool().ForEdgeRange(offsets, p, grain, body)
}

// ForEdgeRange is the pool-backed arc-balanced scheduler; see the
// package-level ForEdgeRange.
func (pl *Pool) ForEdgeRange(offsets []int64, p, grain int, body func(vlo, vhi int, alo, ahi int64, worker int)) {
	n := len(offsets) - 1
	if n < 0 {
		return
	}
	m := offsets[n]
	if m <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultEdgeGrain
	}
	g := int64(grain)
	chunks := int((m + g - 1) / g)
	// One ticket per arc chunk: the pool's grain-1 chunk claim makes the
	// ticket counter advance one ~grain-arc chunk at a time.
	pl.ForRange(chunks, p, 1, func(clo, chi, worker int) {
		for c := clo; c < chi; c++ {
			alo := int64(c) * g
			ahi := alo + g
			if ahi > m {
				ahi = m
			}
			vlo := arcOwner(offsets, alo)
			vhi := arcOwner(offsets, ahi-1) + 1
			body(vlo, vhi, alo, ahi, worker)
		}
	})
}

// forEdgeRangeSpawn is the spawn-based reference implementation used by
// the equivalence tests: identical chunk geometry, fresh goroutines.
func forEdgeRangeSpawn(offsets []int64, p, grain int, body func(vlo, vhi int, alo, ahi int64, worker int)) {
	n := len(offsets) - 1
	if n < 0 {
		return
	}
	m := offsets[n]
	if m <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultEdgeGrain
	}
	g := int64(grain)
	chunks := int((m + g - 1) / g)
	forRangeSpawn(chunks, p, 1, func(clo, chi, worker int) {
		for c := clo; c < chi; c++ {
			alo := int64(c) * g
			ahi := alo + g
			if ahi > m {
				ahi = m
			}
			vlo := arcOwner(offsets, alo)
			vhi := arcOwner(offsets, ahi-1) + 1
			body(vlo, vhi, alo, ahi, worker)
		}
	})
}

// arcOwner returns the vertex owning arc k: the unique v with
// offsets[v] <= k < offsets[v+1] (zero-degree vertices own no arcs and
// are skipped by the search).
func arcOwner(offsets []int64, k int64) int {
	lo, hi := 0, len(offsets)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if offsets[mid+1] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
