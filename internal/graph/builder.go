package graph

import (
	"math/bits"

	"afforest/internal/concurrent"
)

// BuildOptions controls CSR construction from an edge list.
type BuildOptions struct {
	// NumVertices fixes |V|. Zero means infer as max endpoint + 1.
	// Edges with an endpoint >= NumVertices are dropped silently.
	NumVertices int
	// KeepDuplicates retains parallel edges instead of deduplicating.
	// The paper's datasets are simple graphs, so the default removes
	// duplicates; generators that intentionally produce multi-edges
	// (e.g. raw Kronecker output) may keep them to mirror GAP.
	KeepDuplicates bool
	// KeepSelfLoops retains (v, v) edges. Self-loops carry no
	// connectivity information, so the default drops them.
	KeepSelfLoops bool
	// PreserveOrder keeps each vertex's arcs in input-edge order
	// instead of sorting them by target id — the "graph file structure"
	// the paper's neighbor sampling exploits (§VI-A: the r-th sampled
	// neighbor is the r-th *appearing* one). Preserving order implies
	// KeepDuplicates, since dedup needs sorted adjacency.
	PreserveOrder bool
	// Parallelism bounds worker count; 0 means GOMAXPROCS.
	Parallelism int
}

// Build constructs an undirected CSR from edges: each {u, v} input edge
// is stored as both arcs (u, v) and (v, u). Adjacency lists come out
// sorted by target id.
//
// Construction is a cache-blocked counting sort with no atomics
// (propagation blocking, Beamer, Asanović and Patterson, IPDPS 2017).
// Vertex ids are grouped into at most 256 blocks of 2^shift consecutive
// ids (more only past 2^24 vertices, where shift stops at 16 so a
// block-local id fits a uint16), and the edge list is cut into 4·p
// contiguous slices:
//
//  1. Count: each slice counts its kept arcs per block. A prefix over
//     (block, slice) gives every slice a private cursor in every block.
//  2. Bin: each slice writes its arcs, in edge order, into its own
//     ranges: the target into binned, the block-local source into local.
//     Random writes to n cursors become a few hundred sequential streams.
//  3. Per block, dynamically scheduled: a stable counting sort by local
//     source groups the block's arcs into rows in a per-worker buffer,
//     and each row is sorted and deduplicated while the block is in
//     cache, then written back packed with its row start.
//
// A last pass packs the blocks into an exact-size targets array and
// shifts the row starts into offsets. Both scatters are stable and the
// slices are in edge order, so with PreserveOrder the same passes leave
// every row in input order.
func Build(edges []Edge, opt BuildOptions) *CSR {
	p := concurrent.Procs(opt.Parallelism)
	n := opt.NumVertices
	if n == 0 {
		var maxID int64 = -1
		part := make([]int64, p)
		for i := range part {
			part[i] = -1
		}
		concurrent.ForRange(len(edges), p, 0, func(lo, hi, w int) {
			m := part[w]
			for i := lo; i < hi; i++ {
				if int64(edges[i].U) > m {
					m = int64(edges[i].U)
				}
				if int64(edges[i].V) > m {
					m = int64(edges[i].V)
				}
			}
			part[w] = m
		})
		for _, m := range part {
			if m > maxID {
				maxID = m
			}
		}
		n = int(maxID + 1)
	}
	if n < 0 {
		n = 0
	}

	shift := blockShift(n)
	width := 1 << shift
	mask := V(width - 1)
	nb := (n + width - 1) >> shift
	slices := 4 * p
	slice := func(s int) []Edge { return edges[len(edges)*s/slices : len(edges)*(s+1)/slices] }

	// Pass 1: per-slice arc counts per block, then a column-major prefix
	// that turns them into cursors and gives each block its arc range.
	cursor := make([]int, slices*nb)
	concurrent.ForRange(slices, p, 1, func(lo, hi, _ int) {
		for s := lo; s < hi; s++ {
			row := cursor[s*nb : (s+1)*nb]
			for _, e := range slice(s) {
				if keepEdge(e, n, opt.KeepSelfLoops) {
					row[e.U>>shift]++
					row[e.V>>shift]++
				}
			}
		}
	})
	start := make([]int, nb+1)
	maxBlock := 0
	for b, pos := 0, 0; b < nb; b++ {
		start[b] = pos
		for s := 0; s < slices; s++ {
			c := cursor[s*nb+b]
			cursor[s*nb+b] = pos
			pos += c
		}
		start[b+1] = pos
		maxBlock = max(maxBlock, pos-start[b])
	}

	// Pass 2: bin. Every slice writes only its own ranges.
	binned := make([]V, start[nb])
	local := make([]uint16, start[nb])
	concurrent.ForRange(slices, p, 1, func(lo, hi, _ int) {
		for s := lo; s < hi; s++ {
			row := cursor[s*nb : (s+1)*nb]
			for _, e := range slice(s) {
				if keepEdge(e, n, opt.KeepSelfLoops) {
					i := row[e.U>>shift]
					row[e.U>>shift] = i + 1
					binned[i], local[i] = e.V, uint16(e.U&mask)
					j := row[e.V>>shift]
					row[e.V>>shift] = j + 1
					binned[j], local[j] = e.U, uint16(e.V&mask)
				}
			}
		}
	})

	// Pass 3: per block, group arcs into rows, sort and dedup each row,
	// and write the rows back packed at the front of the block's range.
	// offsets[v] holds v's row start relative to its block until the
	// blocks are packed.
	sorted := !opt.PreserveOrder
	dedup := sorted && !opt.KeepDuplicates
	offsets := make([]int64, n+1)
	kept := make([]int, nb+1)
	scratch := make([][]V, p)
	ends := make([][]int, p)
	concurrent.ForRange(nb, p, 1, func(lo, hi, w int) {
		if scratch[w] == nil {
			scratch[w] = make([]V, maxBlock)
			ends[w] = make([]int, width+1)
		}
		for b := lo; b < hi; b++ {
			v0 := b << shift
			blk, loc := binned[start[b]:start[b+1]], local[start[b]:start[b+1]]
			// Stable counting sort by local source: afterwards row l
			// is out[end[l-1]:end[l]].
			end := ends[w][:min(width, n-v0)+1]
			clear(end)
			for _, l := range loc {
				end[int(l)+1]++
			}
			for l := 1; l < len(end); l++ {
				end[l] += end[l-1]
			}
			out := scratch[w][:len(blk)]
			for i, l := range loc {
				out[end[l]] = blk[i]
				end[l]++
			}
			// blk is free now: it lends each row its radix buffer and
			// takes the packed rows, whose front never passes the row
			// being read.
			k, a := 0, 0
			for l, c := range end[:len(end)-1] {
				offsets[v0+l] = int64(k)
				row := out[a:c]
				if sorted {
					sortRow(row, blk[a:c])
				}
				if dedup {
					k += copyUnique(blk[k:], row)
				} else {
					k += copy(blk[k:], row)
				}
				a = c
			}
			kept[b] = k
		}
	})
	local = nil

	// Pack the blocks: prefix the kept totals into block bases, move
	// each block to its base and make its row starts absolute. When
	// nothing was dropped every block already sits at its base.
	total := 0
	for b := 0; b < nb; b++ {
		kept[b], total = total, total+kept[b]
	}
	kept[nb] = total
	targets := binned
	if total < len(binned) {
		targets = make([]V, total)
	}
	concurrent.ForRange(nb, p, 1, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			base := kept[b]
			if total < len(binned) {
				copy(targets[base:kept[b+1]], binned[start[b]:])
			}
			for v := b << shift; v < min((b+1)<<shift, n); v++ {
				offsets[v] += int64(base)
			}
		}
	})
	offsets[n] = int64(total)
	return &CSR{offsets: offsets, targets: targets}
}

// blockShift returns log2 of Build's block width: the smallest width
// that cuts [0, n) into at most 256 blocks, capped at 2^16 so a
// block-local id fits a uint16.
func blockShift(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(min(max(bits.Len(uint(n-1))-8, 0), 16))
}

// keepEdge reports whether Build stores edge e of an n-vertex graph.
func keepEdge(e Edge, n int, selfLoops bool) bool {
	return (selfLoops || e.U != e.V) && int(e.U) < n && int(e.V) < n
}

// copyUnique copies the distinct values of the sorted row into dst and
// returns how many it copied.
func copyUnique(dst, row []V) int {
	k := 0
	for i, t := range row {
		if i == 0 || t != row[i-1] {
			dst[k] = t
			k++
		}
	}
	return k
}

// FromAdjacency builds a CSR from explicit adjacency lists, symmetrizing
// and deduplicating. Intended for small hand-written test graphs.
func FromAdjacency(adj [][]V) *CSR {
	var edges []Edge
	for u, nbrs := range adj {
		for _, v := range nbrs {
			edges = append(edges, Edge{U: V(u), V: v})
		}
	}
	return Build(edges, BuildOptions{NumVertices: len(adj)})
}
