package cluster

import (
	mathrand "math/rand/v2"
	"net"
	"slices"
	"sort"
	"strings"
	"testing"

	"afforest/internal/dist"
	"afforest/internal/graph"
)

// refModel is the reference for a shard's ref set and exchange state: a
// plain map of remote ids next to a min-root union-find standing in for
// π (every π link hooks the larger root under the smaller, so a shard's
// find(v) is the minimum id of v's local component), and a map of acks
// kept for as long as π, with a sort on every scan.
type refModel struct {
	n, lo, hi int
	refs      map[graph.V]struct{}
	parent    []graph.V
	comps     int                 // components of parent
	acks      map[graph.V]graph.V // ref → ack
	seen      int                 // comps at the last scan
}

func newRefModel(n, lo, hi int) *refModel {
	m := &refModel{n: n, lo: lo, hi: hi}
	m.reset()
	return m
}

func (m *refModel) reset() {
	m.refs = map[graph.V]struct{}{}
	m.parent = make([]graph.V, m.n)
	for v := range m.parent {
		m.parent[v] = graph.V(v)
	}
	m.comps = m.n
	m.acks = map[graph.V]graph.V{}
	m.seen = m.comps
}

func (m *refModel) owned(v graph.V) bool { return int(v) >= m.lo && int(v) < m.hi }

// note records a remote id as a ref. A new ref starts unsent, so the
// next scan sends it whatever its find.
func (m *refModel) note(v graph.V) {
	if m.owned(v) {
		return
	}
	if _, ok := m.refs[v]; ok {
		return
	}
	m.refs[v] = struct{}{}
	m.acks[v] = unsent
}

func (m *refModel) find(v graph.V) graph.V {
	for m.parent[v] != v {
		m.parent[v] = m.parent[m.parent[v]]
		v = m.parent[v]
	}
	return v
}

func (m *refModel) union(u, v graph.V) {
	ru, rv := m.find(u), m.find(v)
	if ru == rv {
		return
	}
	if ru > rv {
		ru, rv = rv, ru
	}
	m.parent[rv] = ru
	m.comps--
}

// scan returns nothing when nothing merged since the last scan; else it
// returns, in ref order, every ref whose find differs from its ack and
// moves the ack there. An outbox is a scan.
func (m *refModel) scan() []pair {
	if m.comps == m.seen {
		return nil
	}
	m.seen = m.comps
	var next []pair
	for r, a := range m.acks {
		if f := m.find(r); f != a {
			m.acks[r] = f
			next = append(next, pair{V: r, Label: f})
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i].V < next[j].V })
	return next
}

// ingest links every opinion, then answers (index, find) for each whose
// find after the whole batch differs from the label sent.
func (m *refModel) ingest(ps []pair) []pair {
	for _, p := range ps {
		m.note(p.Label)
		m.union(p.V, p.Label)
	}
	var replies []pair
	for i, p := range ps {
		if f := m.find(p.V); f != p.Label {
			replies = append(replies, pair{V: graph.V(i), Label: f})
		}
	}
	return replies
}

// absorb links the replies, sets each replied ref's ack to the reply
// and returns the next scan.
func (m *refModel) absorb(ps []pair) []pair {
	for _, p := range ps {
		m.note(p.V)
		m.note(p.Label)
		m.union(p.V, p.Label)
	}
	for _, p := range ps {
		if _, ok := m.acks[p.V]; ok {
			m.acks[p.V] = p.Label
		}
	}
	return m.scan()
}

// TestShardRefsMatchModel drives a Shard's dispatcher directly through
// seeded random sequences of opEdges / opIngest / opAbsorb / opOutbox /
// opRestore beside refModel, whose acks persist across outboxes as the
// shard's do. Every outbox must carry the model's pairs in the model's
// order, never an owned id. Every ingest must answer exactly the
// opinions the model labels differently, and every absorb must return
// exactly the model's next opinions.
//
// Every protocol op notes the ids it puts into π, so a ref's label is
// normally a ref already. The sixth op links two ids straight into π
// without noting them, so the shard and the model must also agree on a
// π whose labels include ids that are not refs.
func TestShardRefsMatchModel(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 130, 257}
	var scans, quiet int
	for seed := uint64(1); seed <= 60; seed++ {
		rng := mathrand.New(mathrand.NewPCG(seed, 0))
		n := sizes[rng.IntN(len(sizes))]
		numShards := 1 + rng.IntN(min(n, 4))
		id := rng.IntN(numShards)
		sh := NewShard(1)
		do := func(op byte, payload []byte) (*cursor, error) {
			b, err := sh.handle(op, payload, nil)
			return &cursor{b: b}, err
		}
		if _, err := do(opInit, putU32(putU32(putU64(nil, uint64(n)), uint32(numShards)), uint32(id))); err != nil {
			t.Fatalf("seed %d: initialize(%d, %d, %d): %v", seed, n, numShards, id, err)
		}
		m := newRefModel(n, sh.lo, sh.hi)
		randV := func() graph.V { return graph.V(rng.IntN(n)) }
		randPairs := func(v func() graph.V) []pair {
			ps := make([]pair, rng.IntN(12))
			for i := range ps {
				ps[i] = pair{V: v(), Label: randV()}
			}
			return ps
		}
		scanned := func(before int) {
			if m.seen == before {
				quiet++
			} else {
				scans++
			}
		}
		for step := 0; step < 200; step++ {
			switch op := rng.IntN(6); op {
			case 0:
				ps := randPairs(randV)
				if _, err := do(opEdges, encodePairs(nil, ps)); err != nil {
					t.Fatalf("seed %d step %d: applyEdges: %v", seed, step, err)
				}
				for _, p := range ps {
					m.note(p.V)
					m.note(p.Label)
					m.union(p.V, p.Label)
				}
			case 1:
				if sh.hi == sh.lo {
					continue
				}
				ps := randPairs(func() graph.V { return graph.V(sh.lo + rng.IntN(sh.hi-sh.lo)) })
				c, err := do(opIngest, encodePairs(nil, ps))
				c.u32()
				replies := c.pairs()
				if err != nil {
					t.Fatalf("seed %d step %d: ingest: %v", seed, step, err)
				}
				if want := m.ingest(ps); !slices.Equal(replies, want) {
					t.Fatalf("seed %d step %d: ingest of %v replied\n got %v\nwant %v", seed, step, ps, replies, want)
				}
			case 2:
				// Replies mostly answer refs, as the router's would.
				var acked []graph.V
				for r := range m.acks {
					acked = append(acked, r)
				}
				slices.Sort(acked)
				ps := randPairs(randV)
				for i := range ps {
					if len(acked) > 0 && rng.IntN(4) > 0 {
						ps[i].V = acked[rng.IntN(len(acked))]
					}
				}
				c, err := do(opAbsorb, encodePairs(nil, ps))
				c.u32()
				next := c.pairs()
				if err != nil {
					t.Fatalf("seed %d step %d: absorb: %v", seed, step, err)
				}
				before := m.seen
				if want := m.absorb(ps); !slices.Equal(next, want) {
					t.Fatalf("seed %d step %d: absorb of %v returned\n got %v\nwant %v", seed, step, ps, next, want)
				}
				scanned(before)
			case 3:
				before := m.seen
				want := m.scan()
				c, err := do(opOutbox, nil)
				got := c.pairs()
				if err != nil {
					t.Fatalf("seed %d step %d: outbox: %v", seed, step, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: outbox\n got %v\nwant %v", seed, step, got, want)
				}
				for _, p := range got {
					if m.owned(p.V) {
						t.Fatalf("seed %d step %d: outbox reports owned id %d", seed, step, p.V)
					}
				}
				scanned(before)
			case 4:
				labels := make([]graph.V, sh.hi-sh.lo)
				for i := range labels {
					labels[i] = graph.V(rng.IntN(sh.lo + i + 1))
				}
				restore := encodeLabels(putU32(putU32(nil, uint32(sh.lo)), uint32(sh.hi)), labels)
				if _, err := do(opRestore, restore); err != nil {
					t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
				}
				m.reset()
				for i, l := range labels {
					m.note(l)
					m.union(graph.V(sh.lo+i), l)
				}
				m.seen = m.comps
			case 5:
				u, v := randV(), randV()
				sh.inc.AddEdge(u, v)
				m.union(u, v)
			}
		}
	}
	if scans == 0 || quiet == 0 {
		t.Fatalf("scan cases went unchecked: %d scans, %d without a merge", scans, quiet)
	}
	t.Logf("outboxes and absorbs: %d scanned, %d without a merge", scans, quiet)
}

// TestShardRejectsHostileIDs sends, over a real connection, frames whose
// ids lie past the vertex space (and an ingest for a vertex the shard
// does not own). Each must be answered with opError rather than reach
// the ref bitset, and the shard must keep serving afterwards. So must
// an opInit whose vertex count no 32-bit id space holds: accepting it
// would allocate π and the ref set for 2^33 vertices.
func TestShardRejectsHostileIDs(t *testing.T) {
	const n, numShards, id = 200, 3, 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sh := NewShard(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sh.Serve(ln)
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	call := func(op byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := writeFrame(conn, op, payload); err != nil {
			t.Fatalf("%s: write: %v", opName(op), err)
		}
		rop, _, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("%s: read: %v", opName(op), err)
		}
		return rop, resp
	}
	init := putU32(putU32(putU64(nil, n), numShards), id)
	if rop, resp := call(opInit, init); rop != opInit {
		t.Fatalf("opInit answered %s: %s", opName(rop), resp)
	}
	lo, hi := dist.NewPartitioning(n, numShards).Range(id)
	owned, remote := graph.V(lo), graph.V(hi)

	restoreLabels := make([]graph.V, hi-lo)
	for i := range restoreLabels {
		restoreLabels[i] = graph.V(lo + i)
	}
	restoreLabels[0] = n
	restore := encodeLabels(putU32(putU32(nil, uint32(lo)), uint32(hi)), restoreLabels)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"edges u>=n", opEdges, encodePairs(nil, []pair{{V: n, Label: owned}})},
		{"edges v>=n", opEdges, encodePairs(nil, []pair{{V: owned, Label: 1 << 31}})},
		{"ingest v>=n", opIngest, encodePairs(nil, []pair{{V: n + 5, Label: 0}})},
		{"ingest label>=n", opIngest, encodePairs(nil, []pair{{V: owned, Label: n}})},
		{"ingest not owned", opIngest, encodePairs(nil, []pair{{V: remote, Label: 0}})},
		{"absorb v>=n", opAbsorb, encodePairs(nil, []pair{{V: ^graph.V(0), Label: 0}})},
		{"absorb label>=n", opAbsorb, encodePairs(nil, []pair{{V: remote, Label: n}})},
		{"restore label>=n", opRestore, restore},
		{"init n>2^32", opInit, putU32(putU32(putU64(nil, 1<<33), numShards), id)},
	}
	for _, tc := range cases {
		rop, resp := call(tc.op, tc.payload)
		if rop != opError {
			t.Fatalf("%s: answered %s, want opError", tc.name, opName(rop))
		}
		if !strings.Contains(string(resp), opName(tc.op)) {
			t.Fatalf("%s: error %q does not name %s", tc.name, resp, opName(tc.op))
		}
	}
	if rop, resp := call(opPing, nil); rop != opPing {
		t.Fatalf("opPing after hostile frames answered %s: %s", opName(rop), resp)
	}
	// Nothing hostile leaked into the ref set. An outbox cannot show it:
	// without a merge a scan returns nothing, whatever refs it holds.
	sh.mu.Lock()
	refs := sh.numRefs
	sh.mu.Unlock()
	if refs != 0 {
		t.Fatalf("rejected frames left %d refs, want 0", refs)
	}
}
