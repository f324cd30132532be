package cluster

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// TestLoadWireTrafficGolden pins the exact wire traffic of fixed loads
// into a 3-shard loopback cluster. Shard bookkeeping changes (how refs
// are stored, how outboxes are built) must not move a byte; exchange
// protocol changes update these values and say why in their commit.
func TestLoadWireTrafficGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.CSR
		want RouterStats
	}{
		{"urand-2^14x16", gen.URandDegree(1<<14, 16, 1), RouterStats{Rounds: 2, Opinions: 7752, Messages: 17248, BytesSent: 331412, BytesRecv: 134772}},
		{"kron-12", gen.Kronecker(12, 8, gen.Graph500, 42), RouterStats{Rounds: 3, Opinions: 908, Messages: 2342, BytesSent: 52210, BytesRecv: 25994}},
		{"zigzag-path-3000", zigzagPath(3000), RouterStats{Rounds: 2, Opinions: 7997, Messages: 23988, BytesSent: 144158, BytesRecv: 108142}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := StartLocal(tc.g.NumVertices(), 3, Config{})
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer l.Close()
			if err := l.Router.LoadGraph(tc.g); err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			got, want := l.Router.Stats(), tc.want
			if got.Rounds != want.Rounds || got.Opinions != want.Opinions || got.Messages != want.Messages ||
				got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
				t.Fatalf("wire traffic moved:\n got rounds=%d opinions=%d messages=%d sent=%d recv=%d\nwant rounds=%d opinions=%d messages=%d sent=%d recv=%d",
					got.Rounds, got.Opinions, got.Messages, got.BytesSent, got.BytesRecv,
					want.Rounds, want.Opinions, want.Messages, want.BytesSent, want.BytesRecv)
			}
		})
	}
}

// zigzagPath is one path over n vertices that hops between the three
// partition thirds on every edge (0, n/3, 2n/3, 1, n/3+1, ...), so every
// edge is cut and labels must chain across shards over several exchange
// rounds.
func zigzagPath(n int) *graph.CSR {
	third := n / 3
	order := make([]graph.V, 0, n)
	for i := 0; i < third; i++ {
		order = append(order, graph.V(i), graph.V(third+i), graph.V(2*third+i))
	}
	edges := make([]graph.Edge, 0, len(order))
	for i := 1; i < len(order); i++ {
		edges = append(edges, graph.Edge{U: order[i-1], V: order[i]})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n})
}

// TestExplainStatusWire: each opExplain reply status survives the wire,
// and a status no shard sends is a decode error.
func TestExplainStatusWire(t *testing.T) {
	for _, st := range []byte{explainGap, explainFound, explainDisabled} {
		c := &cursor{b: encodeHops(nil, st, nil)}
		if got, _ := c.hops(0); got != st || c.done() != nil {
			t.Fatalf("status %d decoded as %d (err %v)", st, got, c.done())
		}
	}
	c := &cursor{b: encodeHops(nil, explainDisabled+1, nil)}
	c.hops(0)
	if c.done() == nil {
		t.Fatal("unknown opExplain status decoded without error")
	}
}
