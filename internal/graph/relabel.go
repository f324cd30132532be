package graph

import (
	"fmt"
	"sort"

	"afforest/internal/concurrent"
)

// Permute relabels g by the permutation perm (perm[old] = new id),
// returning a new CSR with sorted adjacency. It panics if perm is not
// a permutation of [0, |V|).
func Permute(g *CSR, perm []V, parallelism int) *CSR {
	n := g.NumVertices()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: permutation length %d != |V| %d", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			panic("graph: perm is not a permutation")
		}
		seen[p] = true
	}
	// Degrees of the new ids.
	deg := make([]int32, n)
	concurrent.For(n, parallelism, func(v int) {
		deg[perm[v]] = int32(g.Degree(V(v)))
	})
	offsets := concurrent.ExclusiveScanInts(deg, parallelism)
	targets := make([]V, offsets[n])
	concurrent.ForGrain(n, parallelism, 64, func(v int) {
		nv := perm[v]
		k := offsets[nv]
		for _, w := range g.Neighbors(V(v)) {
			targets[k] = perm[w]
			k++
		}
		adj := targets[offsets[nv]:k]
		sort.Slice(adj, func(a, b int) bool { return adj[a] < adj[b] })
	})
	return &CSR{offsets: offsets, targets: targets}
}

// RelabelByDegree renumbers vertices in descending degree order (ties
// by original id) — the locality optimization the GAP suite applies to
// Kronecker inputs: hubs land at low ids, concentrating hot π entries
// at the front of the array. Returns the relabeled graph and the
// permutation used (perm[old] = new).
func RelabelByDegree(g *CSR, parallelism int) (*CSR, []V) {
	n := g.NumVertices()
	order := make([]V, n)
	for i := range order {
		order[i] = V(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	perm := make([]V, n)
	for rank, old := range order {
		perm[old] = V(rank)
	}
	return Permute(g, perm, parallelism), perm
}
