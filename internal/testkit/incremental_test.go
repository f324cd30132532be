package testkit

import (
	"sync"
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

// TestIncrementalMixedAddQueryMatchesBatch is the streaming/batch
// equivalence property: feeding a graph's edges to core.Incremental in
// batches — under a pinned deterministic schedule, with concurrent
// lock-free Connected/NumComponents queries hammering the structure in
// parallel mode — must end in exactly the partition the batch
// algorithm computes. Theorem 1 (order-independence of Link) is what
// makes this a theorem rather than a hope; this test is its check.
func TestIncrementalMixedAddQueryMatchesBatch(t *testing.T) {
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
		batchCensus := validate.ComputeCensus(oracle)
		for _, seed := range seeds {
			workers := []int{1, 2, 8}[seed%3]
			serial := seed%2 == 0

			// Batch run under the same schedule, for the census to beat.
			id := ScheduleID{Graph: name, Algo: "afforest", Seed: seed, Workers: workers, Serial: serial}
			if err := Replay(id); err != nil {
				t.Fatalf("[%s] batch run failed: %v", id, err)
			}

			schedMu.Lock()
			concurrent.SetDeterministic(&concurrent.DetConfig{Seed: seed, Serial: serial})
			inc := core.NewIncremental(n)

			// In parallel mode, run live readers against the structure
			// while batches land. Queries never touch the worker pool, so
			// they do not perturb the pinned schedule.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if !serial && n > 0 {
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						next := splitmix(seed + uint64(r))
						for {
							select {
							case <-stop:
								return
							default:
							}
							u := graph.V(next() % uint64(n))
							v := graph.V(next() % uint64(n))
							// Results race the writes; only liveness and
							// memory safety are checked here (under -race).
							inc.Connected(u, v)
							inc.NumComponents()
						}
					}(r)
				}
			}

			const batch = 97
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				inc.AddEdges(edges[lo:hi], workers, nil)
			}
			close(stop)
			wg.Wait()
			final := inc.Snapshot(workers)
			concurrent.SetDeterministic(nil)
			schedMu.Unlock()

			if err := CheckLabeling(g, final, oracle); err != nil {
				t.Errorf("%s seed=%#x workers=%d serial=%v: streamed labels diverge from oracle: %v",
					name, seed, workers, serial, err)
				continue
			}
			if got := validate.ComputeCensus(final); !got.Equal(batchCensus) {
				t.Errorf("%s seed=%#x workers=%d serial=%v: streamed census %+v != batch census %+v",
					name, seed, workers, serial, got, batchCensus)
			}
			if inc.NumComponents() != batchCensus.Components {
				t.Errorf("%s seed=%#x: live component counter %d != %d",
					name, seed, inc.NumComponents(), batchCensus.Components)
			}
		}
	}
}
