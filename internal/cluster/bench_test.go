package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// BenchmarkLocalLoad boots a fresh loopback cluster and loads a graph
// into it per iteration — the cluster bootstrap path end to end
// (routing, shard link, outbox, exchange, wire codec). Besides the time
// it reports the exchange's pairs per load, wire bytes per edge and
// exchange rounds per load, which are exact for a given graph and
// width, and the allocations per load. Profile one case with
//
//	go test -run '^$' -bench 'LocalLoad/urand-18/shards=3' -benchtime 10x -cpuprofile cpu.out ./internal/cluster
func BenchmarkLocalLoad(b *testing.B) {
	for _, bc := range []struct {
		name   string
		build  func() *graph.CSR
		shards int
	}{
		{"urand-18", func() *graph.CSR { return gen.URandDegree(1<<18, 16, 1) }, 3},
		{"urand-18", func() *graph.CSR { return gen.URandDegree(1<<18, 16, 1) }, 8},
		{"kron-18", func() *graph.CSR { return gen.Kronecker(18, 16, gen.Graph500, 1) }, 3},
		{"road-16", func() *graph.CSR { return gen.Road(1<<16, 42) }, 16},
	} {
		b.Run(fmt.Sprintf("%s/shards=%d", bc.name, bc.shards), func(b *testing.B) {
			g := bc.build()
			var st RouterStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := StartLocal(g.NumVertices(), bc.shards, Config{})
				if err != nil {
					b.Fatalf("StartLocal: %v", err)
				}
				err = l.Router.LoadGraph(g)
				st = l.Router.Stats()
				l.Close()
				if err != nil {
					b.Fatalf("LoadGraph: %v", err)
				}
			}
			b.ReportMetric(float64(st.Messages), "pairs/load")
			b.ReportMetric(float64(st.BytesSent+st.BytesRecv)/float64(g.NumEdges()), "wireB/edge")
			b.ReportMetric(float64(st.Rounds), "rounds/load")
		})
	}
}

// BenchmarkStreamedWrites loads gen.URandComponents(1<<16, 4, 0.01, 7)
// into a fresh 3-shard loopback cluster per iteration, then sends 256
// seeded single-edge AddEdges, each merging two components, from 1 or
// 16 concurrent writers, and times only the writes. It reports the
// writes' exchange pairs, rounds and wire bytes per write, which stay
// O(change) because shards keep their acks between exchanges, and
// edges/s. The final labels must equal a serial oracle's.
func BenchmarkStreamedWrites(b *testing.B) {
	const writes = 256
	g := gen.URandComponents(1<<16, 4, 0.01, 7)
	edges := mergingEdges(g, writes, 1)
	want := canonical(graph.Build(append(g.Edges(), edges...), graph.BuildOptions{NumVertices: g.NumVertices()}))
	for _, writers := range []int{1, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			var st RouterStats
			var elapsed time.Duration
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				l, err := StartLocal(g.NumVertices(), 3, Config{})
				if err != nil {
					b.Fatalf("StartLocal: %v", err)
				}
				if err := l.Router.LoadGraph(g); err != nil {
					l.Close()
					b.Fatalf("LoadGraph: %v", err)
				}
				base := l.Router.Stats()
				var next atomic.Int64
				var wg sync.WaitGroup
				start := time.Now()
				b.StartTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := next.Add(1) - 1; k < writes; k = next.Add(1) - 1 {
							if _, err := l.Router.AddEdges(edges[k : k+1]); err != nil {
								b.Errorf("AddEdges(%v): %v", edges[k], err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				elapsed += time.Since(start)
				st = trafficSince(l.Router, base)
				got, err := l.Router.GlobalLabels()
				l.Close()
				if err != nil {
					b.Fatalf("GlobalLabels: %v", err)
				}
				for v := range want {
					if got[v] != want[v] {
						b.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
					}
				}
			}
			b.ReportMetric(float64(st.Messages)/writes, "pairs/write")
			b.ReportMetric(float64(st.Rounds)/writes, "rounds/write")
			b.ReportMetric(float64(st.BytesSent+st.BytesRecv)/writes, "wireB/write")
			b.ReportMetric(float64(b.N*writes)/elapsed.Seconds(), "edges/s")
		})
	}
}
