package dist

import (
	"fmt"
	"sync"

	"afforest/internal/graph"
)

// Stats quantifies one LP execution.
type Stats struct {
	Nodes     int
	Rounds    int   // supersteps: one relaxation sweep each, then a halo exchange unless converged
	CutEdges  int64 // edges crossing partitions (counted once)
	Messages  int64 // halo label messages delivered
	BytesSent int64 // 8 bytes per message (vid + label)
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d rounds=%d cut=%d msgs=%d bytes=%d",
		s.Nodes, s.Rounds, s.CutEdges, s.Messages, s.BytesSent)
}

// runOnNodes executes fn(id) for each node id concurrently and waits.
func runOnNodes(numNodes int, fn func(id int)) {
	var wg sync.WaitGroup
	wg.Add(numNodes)
	for id := 0; id < numNodes; id++ {
		go func(id int) {
			defer wg.Done()
			fn(id)
		}(id)
	}
	wg.Wait()
}

// LP is the distributed Min-Label Propagation comparator: the classic
// size-1-halo BSP scheme the paper credits for LP's distributed-memory
// scalability (Section II-B). Each node owns a vertex block and a halo
// of ghost labels; every superstep performs ONE synchronous relaxation
// sweep over the owned vertices (Pregel-style), then exchanges updated
// boundary labels. The winning minimum label therefore crawls one hop
// per superstep — rounds scale with the graph *diameter*, and each
// round pays a full boundary exchange. The loopback cluster
// (internal/cluster) instead collapses distances inside each shard
// with Afforest's link/compress, so its exchange rounds scale with the
// partition quotient diameter; ExtDist quantifies the traffic gap on
// high-diameter graphs.
func LP(g *graph.CSR, numNodes int) ([]graph.V, Stats) {
	n := g.NumVertices()
	part := NewPartitioning(n, numNodes)
	st := Stats{Nodes: part.NumNodes}

	labels := make([]graph.V, n)
	for v := range labels {
		labels[v] = graph.V(v)
	}

	type lpNode struct {
		lo, hi   int
		halo     map[graph.V]graph.V // remote vertex -> last known label
		boundary []graph.V           // owned vertices with remote neighbors
		dirty    bool
	}
	nodes := make([]*lpNode, part.NumNodes)
	runOnNodes(part.NumNodes, func(id int) {
		lo, hi := part.Range(id)
		nd := &lpNode{lo: lo, hi: hi, halo: make(map[graph.V]graph.V)}
		seen := make(map[graph.V]bool)
		for u := lo; u < hi; u++ {
			remote := false
			for _, v := range g.Neighbors(graph.V(u)) {
				if int(v) < lo || int(v) >= hi {
					remote = true
					if !seen[v] {
						seen[v] = true
						nd.halo[v] = v
					}
				}
			}
			if remote {
				nd.boundary = append(nd.boundary, graph.V(u))
			}
		}
		nodes[id] = nd
	})
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.V(u)) {
			if part.Owner(graph.V(u)) < part.Owner(v) {
				st.CutEdges++
			}
		}
	}

	labelOf := func(nd *lpNode, v graph.V) graph.V {
		if int(v) >= nd.lo && int(v) < nd.hi {
			return labels[v]
		}
		return nd.halo[v]
	}

	for {
		anyChange := false
		var mu sync.Mutex

		// One synchronous relaxation sweep per node (Jacobi-style: all
		// reads see the labels from the start of the superstep).
		runOnNodes(part.NumNodes, func(id int) {
			nd := nodes[id]
			updates := make(map[graph.V]graph.V)
			for u := nd.lo; u < nd.hi; u++ {
				m := labels[u]
				for _, v := range g.Neighbors(graph.V(u)) {
					if l := labelOf(nd, v); l < m {
						m = l
					}
				}
				if m < labels[u] {
					updates[graph.V(u)] = m
				}
			}
			for u, m := range updates {
				labels[u] = m
			}
			nd.dirty = len(updates) > 0
			if nd.dirty {
				mu.Lock()
				anyChange = true
				mu.Unlock()
			}
		})
		st.Rounds++

		if !anyChange && st.Rounds > 1 {
			break
		}

		// Delta halo exchange: each node publishes a boundary label to a
		// neighbor node only when it changed since the last publish —
		// the standard optimization; counting full halos every round
		// would overstate LP's traffic.
		for _, nd := range nodes {
			for _, u := range nd.boundary {
				lbl := labels[u]
				delivered := map[int]bool{}
				for _, v := range g.Neighbors(u) {
					o := part.Owner(v)
					if int(v) >= nd.lo && int(v) < nd.hi {
						continue
					}
					if !delivered[o] {
						delivered[o] = true
						if nodes[o].halo[u] != lbl {
							nodes[o].halo[u] = lbl
							st.Messages++
							st.BytesSent += 8
						}
					}
				}
			}
		}
	}
	return labels, st
}
