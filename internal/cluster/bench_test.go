package cluster

import (
	"fmt"
	"testing"

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
