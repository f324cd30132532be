package cluster

import (
	"fmt"
	mathrand "math/rand/v2"
	"slices"
	"strings"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// TestLoadWireTrafficGolden pins the exact wire traffic of fixed loads
// into a 3-shard loopback cluster, and of seeded merging single-edge
// writes from one writer after a load, whose case pins the writes'
// traffic alone. Shard bookkeeping changes (how refs are stored, how
// outboxes are built) must not move a byte; exchange protocol changes
// update these values and say why in their commit.
func TestLoadWireTrafficGolden(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.CSR
		writes int         // merging single-edge AddEdges after the load
		want   RouterStats // of the load, or of the writes when there are any
	}{
		{"urand-2^14x16", gen.URandDegree(1<<14, 16, 1), 0, RouterStats{Rounds: 2, Opinions: 7752, Messages: 17248, BytesSent: 331397, BytesRecv: 134757}},
		{"kron-12", gen.Kronecker(12, 8, gen.Graph500, 42), 0, RouterStats{Rounds: 3, Opinions: 908, Messages: 2342, BytesSent: 52195, BytesRecv: 25979}},
		{"zigzag-path-3000", zigzagPath(3000), 0, RouterStats{Rounds: 2, Opinions: 7997, Messages: 23988, BytesSent: 144143, BytesRecv: 108127}},
		{"urand-components-2^16/writes=64", gen.URandComponents(1<<16, 4, 0.01, 7), 64, RouterStats{Rounds: 110, Opinions: 1965, Messages: 4706, BytesSent: 23283, BytesRecv: 23763}},
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
			if tc.writes > 0 {
				base := got
				for _, e := range mergingEdges(tc.g, tc.writes, 1) {
					if _, err := l.Router.AddEdges([]graph.Edge{e}); err != nil {
						t.Fatalf("AddEdges(%v): %v", e, err)
					}
				}
				got = trafficSince(l.Router, base)
			}
			if got.Rounds != want.Rounds || got.Opinions != want.Opinions || got.Messages != want.Messages ||
				got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
				t.Fatalf("wire traffic moved:\n got rounds=%d opinions=%d messages=%d sent=%d recv=%d\nwant rounds=%d opinions=%d messages=%d sent=%d recv=%d",
					got.Rounds, got.Opinions, got.Messages, got.BytesSent, got.BytesRecv,
					want.Rounds, want.Opinions, want.Messages, want.BytesSent, want.BytesRecv)
			}
		})
	}
}

// trafficSince returns r's wire traffic since the tallies read base.
func trafficSince(r *Router, base RouterStats) RouterStats {
	st := r.Stats()
	st.Rounds -= base.Rounds
	st.Exchanges -= base.Exchanges
	st.Opinions -= base.Opinions
	st.Messages -= base.Messages
	st.BytesSent -= base.BytesSent
	st.BytesRecv -= base.BytesRecv
	return st
}

// mergingEdges returns count seeded random edges over g's vertices, each
// joining two components of g plus the edges before it. They form a
// forest over g's components, so each one merges in any order, however
// concurrent writers interleave them. g must have more than count
// components.
func mergingEdges(g *graph.CSR, count int, seed uint64) []graph.Edge {
	rng := mathrand.New(mathrand.NewPCG(seed, 0))
	parent := canonical(g)
	find := func(v graph.V) graph.V {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	edges := make([]graph.Edge, 0, count)
	for len(edges) < count {
		u, v := graph.V(rng.IntN(g.NumVertices())), graph.V(rng.IntN(g.NumVertices()))
		ru, rv := find(u), find(v)
		if ru == rv {
			continue
		}
		parent[max(ru, rv)] = min(ru, rv)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
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

// TestPairCodec: random pair lists, encoded whole or split into runs
// after a prefix, decode to the same list through pairs and, as
// (U, V) = (V, Label), through edges. A count past the payload, a list
// cut short and a cut count are refused by both decoders with the same
// errors.
func TestPairCodec(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(1, 0))
	decoders := map[string]func(c *cursor) []pair{
		"pairs": func(c *cursor) []pair { return c.pairs() },
		"edges": func(c *cursor) []pair {
			var out []pair
			for _, e := range c.edges() {
				out = append(out, pair{V: e.U, Label: e.V})
			}
			return out
		},
	}
	for trial := 0; trial < 200; trial++ {
		ps := make([]pair, rng.IntN(300))
		for i := range ps {
			ps[i] = pair{V: rng.Uint32(), Label: rng.Uint32()}
		}
		cut := rng.IntN(len(ps) + 1)
		whole := encodePairs(nil, ps)
		if split := encodePairs(nil, ps[:cut], nil, ps[cut:]); !slices.Equal(split, whole) {
			t.Fatalf("trial %d: runs split at %d encode differently from the whole list", trial, cut)
		}
		prefixed := encodePairs(putU32(nil, 7), ps)
		for name, decode := range decoders {
			c := &cursor{b: whole}
			if got := decode(c); !slices.Equal(got, ps) || c.done() != nil {
				t.Fatalf("trial %d: %s decoded %d pairs (err %v), want %d", trial, name, len(got), c.done(), len(ps))
			}
			c = &cursor{b: prefixed}
			if c.u32() != 7 || !slices.Equal(decode(c), ps) || c.done() != nil {
				t.Fatalf("trial %d: %s after a prefix: err %v", trial, name, c.done())
			}
			refuse := func(b []byte, want string) {
				t.Helper()
				c := &cursor{b: b}
				if got := decode(c); got != nil || c.done() == nil || !strings.Contains(c.done().Error(), want) {
					t.Fatalf("trial %d: %s of %d bytes: got %d pairs, err %v, want %q", trial, name, len(b), len(got), c.done(), want)
				}
			}
			refuse(append(putU32(nil, uint32(len(ps)+1)), whole[4:]...), fmt.Sprintf("pair count %d exceeds payload", len(ps)+1))
			if len(ps) > 0 {
				refuse(whole[:len(whole)-1-rng.IntN(8)], fmt.Sprintf("pair count %d exceeds payload", len(ps)))
			}
			refuse(whole[:rng.IntN(4)], "truncated payload at offset 0")
		}
	}
}
