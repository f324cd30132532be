package cluster

import (
	"testing"

	"afforest/internal/gen"
)

// BenchmarkLocalLoadURand boots a fresh 3-shard loopback cluster and
// loads urand 2^18 × degree 16 into it per iteration — the cluster
// bootstrap path end to end (routing, shard link, outbox, exchange,
// wire codec). Profile it with
//
//	go test -run '^$' -bench LocalLoadURand -benchtime 10x -cpuprofile cpu.out ./internal/cluster
func BenchmarkLocalLoadURand(b *testing.B) {
	g := gen.URandDegree(1<<18, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := StartLocal(g.NumVertices(), 3, Config{})
		if err != nil {
			b.Fatalf("StartLocal: %v", err)
		}
		err = l.Router.LoadGraph(g)
		l.Close()
		if err != nil {
			b.Fatalf("LoadGraph: %v", err)
		}
	}
}
