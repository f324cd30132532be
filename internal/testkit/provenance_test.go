package testkit

import (
	"sync"
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/provenance"
)

// TestProvenanceWitnessMatrix is the provenance acceptance matrix:
// corpus × seeds × worker counts, each run streaming the case's edges
// through core.Incremental.ApplyBatch and recording every batch's
// merges in a merge forest, under a pinned deterministic schedule. At quiescence every sampled pair must
// satisfy
//
//	Explain(u,v) found  ⟺  Connected(u,v)  ⟺  oracle says same component
//
// and every returned witness must be a genuine path in the input
// multigraph, verified edge-by-edge (CheckWitness). The forest must
// also have recorded exactly n − components merges — one per component
// reduction, Theorem 1's merge count, regardless of schedule.
func TestProvenanceWitnessMatrix(t *testing.T) {
	cases := []string{"even-split", "star-high-center-1024", "bridged-cliques-32", "kron-10", "zoo"}
	seeds := matrixSeeds
	if testing.Short() {
		cases = cases[:2]
		seeds = seeds[:2]
	}
	for _, name := range cases {
		c, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Build()
		n := g.NumVertices()
		edges := g.Edges()
		oracle := Oracle(g)
		components := ComputeCensus(oracle).Components
		set := NewEdgeSet(edges)
		for _, seed := range seeds {
			workers := []int{1, 2, 8}[seed%3]
			serial := seed%2 == 0

			schedMu.Lock()
			concurrent.SetDeterministic(&concurrent.DetConfig{Seed: seed, Serial: serial})
			inc := core.NewIncremental(n)
			prov := provenance.NewForest(n)
			const batch = 89
			for lo := 0; lo < len(edges); lo += batch {
				chunk := edges[lo:min(lo+batch, len(edges))]
				prov.RecordMerges(chunk, inc.ApplyBatch(chunk, workers), 0)
			}
			concurrent.SetDeterministic(nil)
			schedMu.Unlock()

			if st := prov.StatsNow(); st.Records != n-components {
				t.Fatalf("%s seed=%#x workers=%d serial=%v: %d merge records, want n−components = %d",
					name, seed, workers, serial, st.Records, n-components)
			}
			if n == 0 {
				continue
			}
			next := splitmix(seed ^ 0xa11ce)
			for q := 0; q < 300; q++ {
				u := graph.V(next() % uint64(n))
				v := graph.V(next() % uint64(n))
				hops, found := prov.Explain(u, v)
				same := oracle[u] == oracle[v]
				if found != same {
					t.Fatalf("%s seed=%#x workers=%d serial=%v: Explain(%d,%d) found=%v, oracle same-component=%v",
						name, seed, workers, serial, u, v, found, same)
				}
				if found != inc.Connected(u, v) {
					t.Fatalf("%s seed=%#x: Explain(%d,%d) disagrees with Connected", name, seed, u, v)
				}
				if !found {
					continue
				}
				if err := CheckWitness(u, v, hops, set); err != nil {
					t.Fatalf("%s seed=%#x workers=%d serial=%v: %v", name, seed, workers, serial, err)
				}
			}
		}
	}
}

// TestProvenanceExplainUnderLiveWriters is the concurrent soundness
// property (run it with -race): reader goroutines call Explain while
// parallel writers stream edges. A witness returned mid-stream must
// already be a genuine path of submitted edges — the forest may lag π
// (completeness arrives at quiescence) but must never invent
// connectivity. After the writers drain, Explain must agree with
// Connected on every sampled pair.
func TestProvenanceExplainUnderLiveWriters(t *testing.T) {
	c, err := CaseByName("kron-10")
	if err != nil {
		t.Fatal(err)
	}
	g := c.Build()
	n := g.NumVertices()
	edges := g.Edges()
	set := NewEdgeSet(edges) // every edge that will ever exist
	oracle := Oracle(g)

	inc := core.NewIncremental(n)
	prov := provenance.NewForest(n)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			next := splitmix(uint64(r) + 7)
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := graph.V(next() % uint64(n))
				v := graph.V(next() % uint64(n))
				if hops, ok := prov.Explain(u, v); ok {
					if err := CheckWitness(u, v, hops, set); err != nil {
						t.Errorf("mid-stream witness unsound: %v", err)
						return
					}
				}
			}
		}(r)
	}

	const batch = 113
	for lo := 0; lo < len(edges); lo += batch {
		chunk := edges[lo:min(lo+batch, len(edges))]
		prov.RecordMerges(chunk, inc.ApplyBatch(chunk, 4), 0)
	}
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	next := splitmix(0xfeed)
	for q := 0; q < 500; q++ {
		u := graph.V(next() % uint64(n))
		v := graph.V(next() % uint64(n))
		hops, found := prov.Explain(u, v)
		if found != (oracle[u] == oracle[v]) {
			t.Fatalf("post-quiescence Explain(%d,%d)=%v disagrees with oracle", u, v, found)
		}
		if found {
			if err := CheckWitness(u, v, hops, set); err != nil {
				t.Fatal(err)
			}
		}
	}
}
