package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/serve"
)

// checkClusterWitness asserts the stitched witness is a contiguous path
// u ⇝ v whose real hops are submitted edges and whose ghost hops join
// vertices the ground-truth labeling agrees are connected (ghost hops
// carry connectivity learned through the exchange protocol — they are
// facts about the graph, just not client-submitted edges).
func checkClusterWitness(t *testing.T, u, v graph.V, hops []provenance.Hop, posted map[[2]graph.V]bool, want []graph.V) {
	t.Helper()
	at := u
	for i, h := range hops {
		if h.U != at {
			t.Fatalf("witness %d-%d: hop %d starts at %d, want %d (hops %+v)", u, v, i, h.U, at, hops)
		}
		if h.Ghost {
			if want[h.U] != want[h.V] {
				t.Fatalf("witness %d-%d: ghost hop %d joins disconnected vertices {%d,%d}", u, v, i, h.U, h.V)
			}
		} else {
			key := [2]graph.V{min(h.U, h.V), max(h.U, h.V)}
			if !posted[key] {
				t.Fatalf("witness %d-%d: hop %d {%d,%d} is not a submitted edge", u, v, i, h.U, h.V)
			}
		}
		at = h.V
	}
	if at != v {
		t.Fatalf("witness %d-%d ends at %d (hops %+v)", u, v, at, hops)
	}
}

// TestClusterExplainCrossShard drives the cross-shard witness surface:
// a random graph is streamed through the router, and Explain must agree
// with Connected on every sampled pair, returning a sound stitched
// witness for connected ones.
func TestClusterExplainCrossShard(t *testing.T) {
	g := gen.URandDegree(256, 3, 17)
	want := canonical(g)
	posted := map[[2]graph.V]bool{}
	for _, e := range g.Edges() {
		posted[[2]graph.V{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l, err := StartLocal(g.NumVertices(), shards, Config{Provenance: true})
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer l.Close()
			// Stream in small batches so provenance sees the edges the
			// write path applies (LoadGraph would work identically; the
			// batching exercises repeated exchanges).
			edges := g.Edges()
			for len(edges) > 0 {
				k := min(len(edges), 64)
				if _, err := l.Router.AddEdges(edges[:k]); err != nil {
					t.Fatalf("AddEdges: %v", err)
				}
				edges = edges[k:]
			}
			n := graph.V(g.NumVertices())
			for u := graph.V(0); u < n; u += 7 {
				for v := graph.V(3); v < n; v += 29 {
					conn, hops, gap, err := l.Router.Explain(u, v)
					if err != nil {
						t.Fatalf("Explain(%d,%d): %v", u, v, err)
					}
					if conn != (want[u] == want[v]) {
						t.Fatalf("Explain(%d,%d) connected=%v disagrees with ground truth", u, v, conn)
					}
					if !conn {
						if hops != nil {
							t.Fatalf("Explain(%d,%d): witness for disconnected pair", u, v)
						}
						continue
					}
					if gap {
						t.Fatalf("Explain(%d,%d): unexpected provenance gap", u, v)
					}
					checkClusterWitness(t, u, v, hops, posted, want)
				}
			}
		})
	}
}

// TestClusterExplainShardStitching posts a path that zig-zags across a
// 3-shard partition and asserts the long witness really is stitched
// from more than one shard's forest, with ghost hops honestly tagged.
func TestClusterExplainShardStitching(t *testing.T) {
	const n = 90 // 3 shards × 30 vertices
	tr := obs.NewWireTrace(0)
	l, err := StartLocal(n, 3, Config{Provenance: true, Trace: tr})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	// Path 0-1-2-…-89: crosses shard boundaries at 29-30 and 59-60.
	for v := 0; v+1 < n; v++ {
		if _, err := l.Router.AddEdges([]graph.Edge{{U: graph.V(v), V: graph.V(v + 1)}}); err != nil {
			t.Fatalf("AddEdges: %v", err)
		}
	}
	posted := map[[2]graph.V]bool{}
	same := make([]graph.V, n) // everything is one component
	for v := 0; v+1 < n; v++ {
		posted[[2]graph.V{graph.V(v), graph.V(v + 1)}] = true
	}
	// Query two non-root vertices on different shards: each side's label
	// chain bottoms out at the component root (vertex 0), so the witness
	// must splice shard 0's segment with the far owner's segment.
	const qu, qv = 5, 85
	before := len(tr.Spans())
	conn, hops, gap, err := l.Router.Explain(qu, qv)
	if err != nil || !conn || gap {
		t.Fatalf("Explain(%d,%d): conn=%v gap=%v err=%v", qu, qv, conn, gap, err)
	}
	// Explain walks each side's label chain once, with one opQuery per
	// chain vertex, and reuses it for the witness segments: here both
	// chains are two vertices long.
	queries := 0
	for _, sp := range tr.Spans()[before:] {
		if sp.Name == obs.WireQuery {
			queries++
		}
	}
	if queries != 4 {
		t.Fatalf("Explain(%d,%d) issued %d opQuery RPCs, want 4", qu, qv, queries)
	}
	checkClusterWitness(t, qu, qv, hops, posted, same)
	shardsSeen := map[int]bool{}
	for _, h := range hops {
		shardsSeen[h.Shard] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("witness for a cross-shard path used only shards %v", shardsSeen)
	}

	// The HTTP surface serves the same stitched witness with per-hop
	// shard attribution.
	ts := httptest.NewServer(l.Router)
	defer ts.Close()
	resp, err := http.Get(ts.URL + fmt.Sprintf("/explain?u=%d&v=%d", qu, qv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain: status %d", resp.StatusCode)
	}
	var body struct {
		Connected bool             `json:"connected"`
		Hops      int              `json:"hops"`
		Witness   []provenance.Hop `json:"witness"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Connected || body.Hops != len(body.Witness) || len(body.Witness) != len(hops) {
		t.Fatalf("HTTP explain disagrees with Router.Explain: %+v vs %d hops", body, len(hops))
	}
	for i, h := range body.Witness {
		if h != hops[i] {
			t.Fatalf("HTTP hop %d = %+v, want %+v", i, h, hops[i])
		}
	}
}

// TestClusterExplainDisconnectedAndDisabled covers the two refusal
// shapes: a disconnected pair answers connected:false with no witness,
// and a connected pair on a cluster without provenance answers the
// single node's 404 error value.
func TestClusterExplainDisconnectedAndDisabled(t *testing.T) {
	l, err := StartLocal(20, 2, Config{Provenance: true})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if _, err := l.Router.AddEdges([]graph.Edge{{U: 0, V: 1}, {U: 18, V: 19}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	conn, hops, gap, err := l.Router.Explain(0, 19)
	if err != nil || conn || gap || hops != nil {
		t.Fatalf("Explain across components: conn=%v hops=%v gap=%v err=%v", conn, hops, gap, err)
	}

	off, err := StartLocal(20, 2, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer off.Close()
	if _, err := off.Router.AddEdges([]graph.Edge{{U: 0, V: 15}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	_, _, _, err = off.Router.Explain(0, 15)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound || !errors.Is(err, serve.ErrNoProvenance) {
		t.Fatalf("Explain with provenance off: err = %v, want serve.ErrNoProvenance (404)", err)
	}
}
