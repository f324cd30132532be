package gen

import (
	"math"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// KronParams are the R-MAT recursion probabilities. The Graph500 /
// GAP-benchmark values (A=0.57, B=0.19, C=0.19, D=0.05) are the ones
// the paper's "kron" dataset uses.
type KronParams struct {
	A, B, C float64 // D is implied: 1 - A - B - C
}

// Graph500 is the standard Kronecker parameter set used by GAP and the
// paper.
var Graph500 = KronParams{A: 0.57, B: 0.19, C: 0.19}

// Kronecker generates a Kronecker (R-MAT) graph with 2^scale vertices
// and edgeFactor·2^scale undirected edges, the synthetic heavy-tailed
// input of Table III ("kron"). Each edge is placed by descending the
// 2x2 adjacency-matrix recursion scale times. Generation is
// edge-parallel and deterministic in seed.
//
// Like the Graph500 generator, the raw stream contains duplicates and
// self-loops; the CSR builder removes them, so realized |E| is slightly
// below edgeFactor·2^scale (noticeably so for heavy hubs at small
// scales), matching how GAP reports its kron statistics.
func Kronecker(scale int, edgeFactor int, params KronParams, seed uint64) *graph.CSR {
	edges := kronEdges(scale, edgeFactor, params, seed)
	return graph.Build(edges, graph.BuildOptions{NumVertices: 1 << uint(scale)})
}

// kronEdges draws Kronecker's raw edge stream, edge i from its own RNG
// stream.
func kronEdges(scale int, edgeFactor int, params KronParams, seed uint64) []graph.Edge {
	m := int64(edgeFactor) << uint(scale)
	ab := params.A + params.B
	abc := ab + params.C
	tA, tAB, tABC := drawThreshold(params.A), drawThreshold(ab), drawThreshold(abc)
	edges := make([]graph.Edge, m)
	concurrent.ForRange(int(m), 0, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			r := newRNG(mix(seed ^ uint64(i)*0x94d049bb133111eb))
			var u, v uint64
			for bit := 0; bit < scale; bit++ {
				// A level takes the first quadrant whose cumulative
				// probability the draw falls below: A sets no bit, B
				// sets v's, C sets u's, D both. a, b and c are 1 when
				// the 53-bit draw k is below tA, tAB and tABC; k and
				// the thresholds are below 2^63, so the sign bit of
				// the difference is the comparison. No branch.
				k := r.next() >> 11
				a, b, c := (k-tA)>>63, (k-tAB)>>63, (k-tABC)>>63
				u |= ((a | b) ^ 1) << bit
				v |= ((a ^ 1) & (b | (c ^ 1))) << bit
			}
			edges[i] = graph.Edge{U: graph.V(u), V: graph.V(v)}
		}
	})
	return edges
}

// drawThreshold returns ceil(x·2^53) clamped to [0, 2^53]. For a
// 53-bit integer k, k < drawThreshold(x) exactly when
// float64(k)/2^53 < x: k/2^53 and x·2^53 are exact in float64, and for
// an integer k, k < y exactly when k < ceil(y). So comparing k with
// the thresholds picks the quadrant that comparing rng.float64's draw
// with the cumulative probabilities would.
func drawThreshold(x float64) uint64 {
	switch {
	case !(x > 0): // NaN too: no draw is below it
		return 0
	case x >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(x * (1 << 53)))
}

// TwitterLike generates a heavy-tailed social-network analogue of the
// paper's twitter dataset [12]: a preferential-attachment graph where
// each new vertex attaches `attach` edges to endpoints sampled from the
// existing edge-endpoint multiset (degree-proportional), giving a
// power-law degree distribution, a single giant component covering all
// non-seed vertices, and low diameter.
//
// Generation is inherently sequential (each vertex depends on the
// degree state left by its predecessors) but runs at O(m) total work.
func TwitterLike(n, attach int, seed uint64) *graph.CSR {
	if attach < 1 {
		attach = 1
	}
	r := newRNG(mix(seed))
	// endpoints holds every edge endpoint placed so far; sampling a
	// uniform element is exactly degree-proportional sampling.
	endpoints := make([]graph.V, 0, 2*attach*n)
	edges := make([]graph.Edge, 0, attach*n)
	// Seed clique of attach+1 vertices so early samples are well defined.
	seedN := attach + 1
	if seedN > n {
		seedN = n
	}
	for u := 1; u < seedN; u++ {
		for v := 0; v < u; v++ {
			edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
			endpoints = append(endpoints, graph.V(u), graph.V(v))
		}
	}
	for u := seedN; u < n; u++ {
		for k := 0; k < attach; k++ {
			v := endpoints[r.intn(len(endpoints))]
			edges = append(edges, graph.Edge{U: graph.V(u), V: v})
			endpoints = append(endpoints, graph.V(u), v)
		}
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}
