package cluster

import (
	"fmt"
	mathrand "math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"afforest/internal/graph"
	"afforest/internal/obs"
)

// settleArcs ships per[id] to shard id through sendEdges, then settles
// the exchange the way a write does, under the router's write lock.
func settleArcs(t *testing.T, r *Router, per [][]pair) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var merged int64
	for id, sl := range r.slots {
		m, err := r.sendEdges(rctx{}, sl, id, per[id])
		if err != nil {
			t.Fatalf("sendEdges to shard %d: %v", id, err)
		}
		merged += m
	}
	if err := r.settleLocked(rctx{}, merged); err != nil {
		t.Fatalf("settle: %v", err)
	}
}

// placementRNG is the fixed-seed source of one arc-placement case: a
// seed replays the same graph, batches and placements.
func placementRNG(seed uint64) *mathrand.Rand { return mathrand.New(mathrand.NewPCG(seed, 0)) }

// TestExchangeArcPlacements ships every edge's arcs through sendEdges
// in random batches, each edge to owner(u), owner(v), both, or an
// arbitrary shard — placements LoadGraph and AddEdges never make — and
// settles each batch. Between batches, with probability ½ drawn from a
// second seeded stream, a random slot leaves and a fresh shard joins it
// with the snapshot, so the other members' acks outlive the membership
// change. After every batch GlobalLabels and Resolve of every vertex,
// and Connected of random pairs, must match the canonical labeling of
// the edges so far, at 2–16 shards. Some seeds lay a random path, whose
// labels chain across many shards. A failure names its seed, and
// `go test -run 'TestExchangeArcPlacements/seed=N' ./internal/cluster`
// replays it.
func TestExchangeArcPlacements(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := placementRNG(seed)
			members := mathrand.New(mathrand.NewPCG(seed, 1))
			n := 2 + rng.IntN(160)
			l, err := StartLocal(n, 2+rng.IntN(15), Config{Parallelism: 1})
			if err != nil {
				t.Fatalf("seed %d: StartLocal: %v", seed, err)
			}
			defer l.Close()
			r := l.Router
			path := rng.IntN(3) == 0
			order := rng.Perm(n)
			var edges []graph.Edge
			for batch, batches := 0, 1+rng.IntN(5); batch < batches; batch++ {
				if batch > 0 && members.IntN(2) == 0 {
					id := members.IntN(r.numShards)
					if err := r.Leave(id); err != nil {
						t.Fatalf("seed %d batch %d: Leave(%d): %v", seed, batch, id, err)
					}
					addr, err := l.SpawnShard(1)
					if err != nil {
						t.Fatalf("seed %d batch %d: SpawnShard: %v", seed, batch, err)
					}
					if err := r.Join(id, addr); err != nil {
						t.Fatalf("seed %d batch %d: Join(%d): %v", seed, batch, id, err)
					}
				}
				per := make([][]pair, r.numShards)
				for k := rng.IntN(n); k > 0; k-- {
					u, v := graph.V(rng.IntN(n)), graph.V(rng.IntN(n))
					if path {
						i := rng.IntN(n - 1)
						u, v = graph.V(order[i]), graph.V(order[i+1])
					}
					edges = append(edges, graph.Edge{U: u, V: v})
					ou, ov := r.part.Owner(u), r.part.Owner(v)
					switch rng.IntN(4) {
					case 0:
						per[ou] = append(per[ou], pair{V: u, Label: v})
					case 1:
						per[ov] = append(per[ov], pair{V: v, Label: u})
					case 2:
						per[ou] = append(per[ou], pair{V: u, Label: v})
						per[ov] = append(per[ov], pair{V: v, Label: u})
					default:
						any := rng.IntN(r.numShards)
						per[any] = append(per[any], pair{V: u, Label: v})
					}
				}
				settleArcs(t, r, per)

				want := canonical(graph.Build(edges, graph.BuildOptions{NumVertices: n}))
				got, err := r.GlobalLabels()
				if err != nil {
					t.Fatalf("seed %d batch %d: GlobalLabels: %v", seed, batch, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("seed %d (n=%d, %d shards) batch %d: label[%d] = %d, want %d",
							seed, n, r.numShards, batch, v, got[v], want[v])
					}
					if res, err := r.Resolve(graph.V(v)); err != nil || res != want[v] {
						t.Fatalf("seed %d batch %d: Resolve(%d) = %d, %v; want %d", seed, batch, v, res, err, want[v])
					}
				}
				for i := 0; i < 8; i++ {
					u, v := graph.V(rng.IntN(n)), graph.V(rng.IntN(n))
					if c, err := r.Connected(u, v); err != nil || c != (want[u] == want[v]) {
						t.Fatalf("seed %d batch %d: Connected(%d,%d) = %v, %v; want %v",
							seed, batch, u, v, c, err, want[u] == want[v])
					}
				}
			}
		})
	}
}

// TestExchangeStaleHolder pins the case that shows owners push nothing:
// 4 shards of 10 vertices; shard 0 holds {0,20}, shard 1 {10,11} and
// {11,12}, shard 2 {20,12}, shard 3 {30,11} and {30,10}. Component
// {0,10,11,12,20,30} resolves to 0 through shard 2 and shard 1, and
// shard 3's acks for 10 and 11 were never contradicted, so it still
// labels 30 with 10. Every router read follows owner labels, so they
// must all answer 0 anyway.
func TestExchangeStaleHolder(t *testing.T) {
	l, err := StartLocal(40, 4, Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	r := l.Router
	settleArcs(t, r, [][]pair{
		{{V: 0, Label: 20}},
		{{V: 10, Label: 11}, {V: 11, Label: 12}},
		{{V: 20, Label: 12}},
		{{V: 30, Label: 11}, {V: 30, Label: 10}},
	})
	sh := l.shards[3]
	sh.mu.Lock()
	stale := sh.inc.Find(30)
	sh.mu.Unlock()
	if stale != 10 {
		t.Fatalf("shard 3's find(30) = %d, want the stale 10 (the case no longer exercises a stale holder)", stale)
	}
	labels, err := r.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	for _, v := range []graph.V{0, 10, 11, 12, 20, 30} {
		if labels[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, labels[v])
		}
		if got, err := r.Resolve(v); err != nil || got != 0 {
			t.Fatalf("Resolve(%d) = %d, %v; want 0", v, got, err)
		}
	}
	for _, v := range []graph.V{0, 20} {
		if c, err := r.Connected(30, v); err != nil || !c {
			t.Fatalf("Connected(30,%d) = %v, %v; want true", v, c, err)
		}
	}
	if c, err := r.Connected(30, 31); err != nil || c {
		t.Fatalf("Connected(30,31) = %v, %v; want false", c, err)
	}
}

// stubShard serves frames on a loopback listener, answering each with
// answer(op, payload) — a scripted member standing in for a faulty
// shard. It stops when the test ends.
func stubShard(t *testing.T, answer func(op byte, payload []byte) (byte, []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					op, _, payload, err := readFrame(conn)
					if err != nil {
						return
					}
					rop, resp := answer(op, payload)
					if writeFrame(conn, rop, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterRejectsReplyPastRequest: an owner that answers an ingest
// with an index past the end of the request fails the write with an
// error naming the shard, and the router does not panic.
func TestRouterRejectsReplyPastRequest(t *testing.T) {
	const n = 20
	stub := func(id int) string {
		return stubShard(t, func(op byte, payload []byte) (byte, []byte) {
			switch op {
			case opEdges:
				return op, putU32(nil, 1)
			case opOutbox:
				if id == 0 {
					return op, encodePairs(nil, []pair{{V: n - 1, Label: 0}})
				}
				return op, encodePairs(nil, nil)
			case opIngest:
				return op, encodePairs(putU32(nil, 0), []pair{{V: 5, Label: 0}})
			case opAbsorb:
				return op, encodePairs(putU32(nil, 0), nil)
			}
			return op, nil
		})
	}
	r, err := NewRouter([]string{stub(0), stub(1)}, n, Config{})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close(false)
	_, err = r.AddEdges([]graph.Edge{{U: 0, V: n - 1}})
	if err == nil || !strings.Contains(err.Error(), "shard 1 replied to opinion 5 of 1") {
		t.Fatalf("AddEdges with an out-of-range reply: err = %v", err)
	}
}

// TestRouterRejectsUnsortedOpinions: the router regroups opinions by
// per-owner runs and routes replies by walking those runs, so an
// opOutbox or opAbsorb answer whose refs do not strictly increase, and
// an opIngest answer whose indices do not, fail the write with an error
// naming the shard, and three such failures inside a second fire
// wire_error_burst.
func TestRouterRejectsUnsortedOpinions(t *testing.T) {
	const n = 30 // shards own [0,10), [10,20) and [20,30)
	for _, tc := range []struct {
		name    string
		outbox  [3][]pair
		ingest  []pair // shard 1's replies
		absorb  []pair // shard 0's next opinions
		wantErr string
	}{
		{name: "outbox", outbox: [3][]pair{{{V: 25, Label: 0}, {V: 15, Label: 0}}},
			wantErr: "shard 0 sent ref 15 after ref 25"},
		{name: "absorb", outbox: [3][]pair{{{V: 15, Label: 0}}}, ingest: []pair{{V: 0, Label: 10}},
			absorb: []pair{{V: 25, Label: 0}, {V: 25, Label: 0}}, wantErr: "shard 0 sent ref 25 after ref 25"},
		{name: "ingest", outbox: [3][]pair{{{V: 15, Label: 0}}, nil, {{V: 12, Label: 20}}},
			ingest: []pair{{V: 1, Label: 10}, {V: 0, Label: 10}}, wantErr: "shard 1 replied to opinion 0 after opinion 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := func(id int) string {
				return stubShard(t, func(op byte, payload []byte) (byte, []byte) {
					switch op {
					case opEdges:
						return op, putU32(nil, 1)
					case opOutbox:
						return op, encodePairs(nil, tc.outbox[id])
					case opIngest:
						if id == 1 {
							return op, encodePairs(putU32(nil, 0), tc.ingest)
						}
						return op, encodePairs(putU32(nil, 0), nil)
					case opAbsorb:
						if id == 0 {
							return op, encodePairs(putU32(nil, 0), tc.absorb)
						}
						return op, encodePairs(putU32(nil, 0), nil)
					}
					return op, nil
				})
			}
			r, err := NewRouter([]string{stub(0), stub(1), stub(2)}, n, Config{})
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			defer r.Close(false)
			start := time.Now()
			for i := 0; i < 3; i++ {
				_, err = r.AddEdges([]graph.Edge{{U: 0, V: n - 1}})
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("AddEdges %d: err = %v, want %q", i, err, tc.wantErr)
				}
			}
			if d := time.Since(start); d >= time.Second {
				t.Skipf("three writes took %v, past the rule's one-second window", d)
			}
			for _, rec := range r.anom.Recent() {
				if rec.Rule == obs.RuleWireErrorBurst && strings.Contains(rec.Detail, tc.wantErr) {
					return
				}
			}
			t.Fatalf("no wire_error_burst naming %q; recent anomalies = %+v", tc.wantErr, r.anom.Recent())
		})
	}
}

// labelStub returns stub shards over table: each answers opLabels and
// opQuery straight from table.
func labelStub(t *testing.T, table []graph.V, numShards int) []string {
	addrs := make([]string, numShards)
	for id := range addrs {
		addrs[id] = stubShard(t, func(op byte, payload []byte) (byte, []byte) {
			c := &cursor{b: payload}
			switch op {
			case opLabels:
				a, b := int(c.u32()), int(c.u32())
				return op, encodeLabels(nil, table[a:b])
			case opQuery:
				return op, putU32(nil, uint32(table[c.u32()]))
			}
			return op, nil
		})
	}
	return addrs
}

// TestGlobalLabelsShortcut: owner labels that chain five hops across
// three shards (11 → 9 → 6 → 5 → 2 → 0) resolve in the router's single
// shortcut pass, and Resolve and Connected agree with it.
func TestGlobalLabelsShortcut(t *testing.T) {
	table := []graph.V{0, 1, 0, 3, 4, 2, 5, 7, 8, 6, 10, 9}
	want := []graph.V{0, 1, 0, 3, 4, 0, 0, 7, 8, 0, 10, 0}
	r, err := NewRouter(labelStub(t, table, 3), len(table), Config{})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close(false)
	got, err := r.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d (all: %v)", v, got[v], want[v], got)
		}
	}
	if l, err := r.Resolve(11); err != nil || l != 0 {
		t.Fatalf("Resolve(11) = %d, %v; want 0", l, err)
	}
	if c, err := r.Connected(11, 1); err != nil || c {
		t.Fatalf("Connected(11,1) = %v, %v; want false", c, err)
	}
}

// TestRouterRejectsLabelAboveVertex: a shard that labels a vertex with a
// larger id breaks the π(x) ≤ x invariant every label-chain walk relies
// on; GlobalLabels, Resolve and Leave's snapshot handoff must return an
// error naming the shard rather than answer or loop.
func TestRouterRejectsLabelAboveVertex(t *testing.T) {
	table := []graph.V{0, 1, 0, 3, 4, 2, 5, 9, 8, 6, 10, 9}
	r, err := NewRouter(labelStub(t, table, 3), len(table), Config{})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close(false)
	const msg = "shard 1 labels vertex 7 with 9"
	if _, err := r.GlobalLabels(); err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("GlobalLabels: err = %v, want %q", err, msg)
	}
	if _, err := r.Resolve(7); err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("Resolve(7): err = %v, want %q", err, msg)
	}
	if err := r.Leave(1); err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("Leave(1): err = %v, want %q", err, msg)
	}
	if r.degradedLocked() {
		t.Fatal("a refused snapshot handoff left the slot vacant")
	}
}
