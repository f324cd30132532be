// Package dist holds the distributed-memory pieces (the paper's
// Section VII future work) that are not the cluster itself: the 1D
// vertex partition every distributed component shares, and LP, the
// halo-exchange label-propagation comparator the distributed extension
// experiment measures the loopback cluster (internal/cluster) against.
package dist

import "afforest/internal/graph"

// Partitioning is the cluster's 1D vertex partition: n vertices split
// across NumNodes contiguous, equal-width blocks (the last block takes
// the remainder). It is the shared coordinate system of every
// distributed component in this repository — the LP comparator here
// and the real router/shard deployment in internal/cluster — so both
// sides of a wire protocol can reconstruct the identical partition from
// just (n, numNodes) and never ship vertex ownership tables.
//
// Guarantees (property-tested in partition_test.go):
//
//   - Ranges tile [0, n) exactly: contiguous, non-overlapping,
//     exhaustive, in node-id order.
//   - Owner(v) == id  ⟺  Range(id).lo ≤ v < Range(id).hi.
//   - Deterministic: the same (n, numNodes) always yields the same
//     partition, across processes and releases (the wire protocol
//     depends on this).
//   - Degenerate inputs are clamped, never panic: numNodes < 1 becomes
//     1, numNodes > n becomes n (every node then owns at most one
//     vertex and surplus ranges are empty), n == 0 yields only empty
//     ranges.
type Partitioning struct {
	// NumNodes is the effective node count after clamping (see
	// NewPartitioning); iterate ids in [0, NumNodes).
	NumNodes int
	n        int
	block    int
}

// NewPartitioning splits n vertices across numNodes contiguous blocks.
// numNodes is clamped to [1, max(n, 1)]: asking for more nodes than
// vertices yields one vertex per node (callers must use the returned
// NumNodes, not the requested count).
func NewPartitioning(n, numNodes int) Partitioning {
	if numNodes < 1 {
		numNodes = 1
	}
	if numNodes > n && n > 0 {
		numNodes = n
	}
	block := (n + numNodes - 1) / numNodes
	if block < 1 {
		block = 1
	}
	return Partitioning{NumNodes: numNodes, n: n, block: block}
}

// Owner returns the node owning vertex v. v must be in [0, n).
func (p Partitioning) Owner(v graph.V) int {
	o := int(v) / p.block
	if o >= p.NumNodes {
		o = p.NumNodes - 1
	}
	return o
}

// Range returns the [lo, hi) vertex range owned by node id. Ranges of
// successive ids tile [0, n) without gaps or overlap; a range may be
// empty when n < NumNodes·block leaves nothing for the tail.
func (p Partitioning) Range(id int) (lo, hi int) {
	lo = id * p.block
	hi = lo + p.block
	if id == p.NumNodes-1 || hi > p.n {
		hi = p.n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
