package graph

import (
	"fmt"
	"math/rand"
)

// Stats summarizes a graph the way Table III of the paper does: size,
// degree shape, component structure, and an approximate diameter.
type Stats struct {
	NumVertices  int
	NumEdges     int64
	MinDegree    int
	MaxDegree    int
	AvgDegree    float64
	NumIsolated  int     // degree-0 vertices
	Components   int     // C
	MaxComponent int     // |c_max|
	MaxCompFrac  float64 // |c_max| / |V|
	ApproxDiam   int     // lower bound from multi-source double sweep
}

// ComputeStats gathers Stats for g. The component census uses an
// independent sequential BFS labeling (also the validation oracle used
// by the algorithm tests), and the diameter estimate is a multi-source
// double sweep: BFS from a seed, then BFS again from the farthest vertex
// found, repeated from a few random seeds. The result lower-bounds the
// true diameter and is exact on trees.
func ComputeStats(g *CSR, seed int64) Stats {
	n := g.NumVertices()
	s := Stats{NumVertices: n, NumEdges: g.NumEdges(), MinDegree: -1}
	if n == 0 {
		s.MinDegree = 0
		return s
	}
	var totalDeg int64
	for v := 0; v < n; v++ {
		d := g.Degree(V(v))
		totalDeg += int64(d)
		if s.MinDegree < 0 || d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.NumIsolated++
		}
	}
	s.AvgDegree = float64(totalDeg) / float64(n)

	_, sizes := SequentialCC(g)
	s.Components = len(sizes)
	for _, sz := range sizes {
		if sz > s.MaxComponent {
			s.MaxComponent = sz
		}
	}
	s.MaxCompFrac = float64(s.MaxComponent) / float64(n)
	s.ApproxDiam = ApproxDiameter(g, 4, seed)
	return s
}

// SequentialCC labels components with iterative BFS and returns the
// per-vertex labels plus the size of each component (indexed by label).
// This is the oracle implementation: simple, sequential, obviously
// correct, and independent of the union-find machinery under test.
func SequentialCC(g *CSR) (labels []int32, sizes []int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]V, 0, 1024)
	for root := 0; root < n; root++ {
		if labels[root] >= 0 {
			continue
		}
		id := int32(len(sizes))
		labels[root] = id
		size := 1
		queue = append(queue[:0], V(root))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if labels[v] < 0 {
					labels[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// BFSDistances runs a sequential BFS from src and returns hop distances
// (-1 for unreachable), the farthest reached vertex, and its distance.
func BFSDistances(g *CSR, src V) (dist []int32, far V, ecc int32) {
	n := g.NumVertices()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	far = src
	cur := []V{src}
	for len(cur) > 0 {
		var next []V
		for _, u := range cur {
			du := dist[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = du + 1
					if dist[v] > ecc {
						ecc, far = dist[v], v
					}
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return dist, far, ecc
}

// ApproxDiameter lower-bounds the diameter by double-sweep BFS from
// `sweeps` random seeds.
func ApproxDiameter(g *CSR, sweeps int, seed int64) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	best := int32(0)
	for s := 0; s < sweeps; s++ {
		src := V(rng.Intn(n))
		_, far, _ := BFSDistances(g, src)
		_, _, ecc := BFSDistances(g, far)
		if ecc > best {
			best = ecc
		}
	}
	return int(best)
}

// String renders the stats as a single Table III-style row.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d deg[min=%d avg=%.2f max=%d] C=%d maxComp=%.1f%% diam>=%d",
		s.NumVertices, s.NumEdges, s.MinDegree, s.AvgDegree, s.MaxDegree,
		s.Components, 100*s.MaxCompFrac, s.ApproxDiam)
}
