package cluster

import (
	"fmt"
	"testing"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

// shardLinks sums the arcs every shard of l has linked (opEdges pairs,
// ghost copies included).
func shardLinks(l *Local) int64 {
	var sum int64
	for _, sh := range l.shards {
		sh.mu.Lock()
		sum += sh.edges
		sh.mu.Unlock()
	}
	return sum
}

// requireLabels fails unless the cluster's assembled labeling equals
// want exactly.
func requireLabels(t *testing.T, l *Local, want []graph.V) {
	t.Helper()
	got, err := l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d labels, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestLoadLinkCountBound: a load links about as many arcs as the
// single-node kernel does (Fig 5's sampling plus skipping), not every
// edge plus a ghost copy of each cut edge. The shards' summed link
// calls must stay within 1.2× of core.EdgesProcessed on the graphs
// where skipping pays most.
func TestLoadLinkCountBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.CSR
	}{
		{"urand-18", gen.URandDegree(1<<18, 16, 1)},
		{"kron-18", gen.Kronecker(18, 16, gen.Graph500, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, _ := core.EdgesProcessed(tc.g, core.DefaultOptions())
			l := loadChecked(t, tc.g, 3)
			links := shardLinks(l)
			t.Logf("shard links %d, single-node links %d, arcs %d", links, single, tc.g.NumArcs())
			if float64(links) > 1.2*float64(single) {
				t.Fatalf("shards linked %d arcs, more than 1.2 × the single-node %d", links, single)
			}
		})
	}
}

// theorem3Graph is a 120-vertex graph where one small component S =
// {0, 1, 119} joins the giant path 2..118 through a single edge
// {5, 119}. That edge sits at row position 2 in both endpoints' sorted
// rows (row 5 is [4 6 119], row 119 is [0 1 5]), so neighbor sampling
// never ships it, and 5 and 119 have different owners at 2, 3 and 4
// shards.
func theorem3Graph() *graph.CSR {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 119}, {U: 1, V: 119}, {U: 5, V: 119}}
	for v := 2; v < 118; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: 120})
}

// TestLoadTheorem3SkipsOnlyInsideRows: after sampling, the giant path
// is the most frequent component c and S is outside it. Row 5 resolves
// to c and is skipped; row 119 does not, so it ships the joining edge.
// The load must be exact and must skip exactly that one arc.
func TestLoadTheorem3SkipsOnlyInsideRows(t *testing.T) {
	g := theorem3Graph()
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l := loadChecked(t, g, shards)
			if l.Router.part.Owner(5) == l.Router.part.Owner(119) {
				t.Fatalf("5 and 119 share owner %d; the case needs a cut edge", l.Router.part.Owner(5))
			}
			if got, want := shardLinks(l), g.NumArcs()-1; got != want {
				t.Fatalf("shards linked %d arcs, want %d (every arc but row 5's arc to 119)", got, want)
			}
		})
	}
}

// TestLoadAfterStreamedEdges loads a graph into a cluster that already
// holds streamed edges: the row skip reads labels that include them, and
// the result must be the components of the union.
func TestLoadAfterStreamedEdges(t *testing.T) {
	g := gen.URandDegree(600, 3, 9)
	streamed := []graph.Edge{{U: 0, V: 599}, {U: 10, V: 300}, {U: 250, V: 450}, {U: 598, V: 597}}
	union := append(g.Edges(), streamed...)
	want := canonical(graph.Build(union, graph.BuildOptions{NumVertices: g.NumVertices()}))
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l, err := StartLocal(g.NumVertices(), shards, Config{})
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer l.Close()
			if _, err := l.Router.AddEdges(streamed); err != nil {
				t.Fatalf("AddEdges: %v", err)
			}
			if err := l.Router.LoadGraph(g); err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			requireLabels(t, l, want)
		})
	}
}

// TestLoadSmallerGraph loads a graph with fewer vertices than the
// router partitions: rows stop at the graph's last vertex and the rest
// stay singletons.
func TestLoadSmallerGraph(t *testing.T) {
	g := gen.Kronecker(6, 4, gen.Graph500, 3)
	const n = 100
	want := canonical(g)
	for v := g.NumVertices(); v < n; v++ {
		want = append(want, graph.V(v))
	}
	l, err := StartLocal(n, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	requireLabels(t, l, want)
}

// TestLoadEmpty loads the empty graph into a zero-vertex cluster.
func TestLoadEmpty(t *testing.T) {
	l, err := StartLocal(0, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(graph.Build(nil, graph.BuildOptions{})); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	requireLabels(t, l, []graph.V{})
}

// TestAddEdgesExchangeSkip: a streamed batch that merges nothing on any
// shard runs no exchange, and one whose only merge is a ghost copy's
// still does. Partition of 30 vertices over 3 shards: [0,10), [10,20),
// [20,30).
func TestAddEdgesExchangeSkip(t *testing.T) {
	l, err := StartLocal(30, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	add := func(edges ...graph.Edge) int64 {
		t.Helper()
		merged, err := l.Router.AddEdges(edges)
		if err != nil {
			t.Fatalf("AddEdges(%v): %v", edges, err)
		}
		return merged
	}
	want := make([]graph.V, 30)
	for v := range want {
		want[v] = graph.V(v)
	}
	want[5], want[15] = 1, 1

	// Shard 0 learns 1~5~15; shard 1 learns only 15~1 (the ghost copy of
	// {1,15}).
	add(graph.Edge{U: 1, V: 5}, graph.Edge{U: 1, V: 15})
	before := l.Router.Stats()

	// Every copy of these is already linked where it lands.
	if m := add(graph.Edge{U: 1, V: 5}, graph.Edge{U: 1, V: 15}, graph.Edge{U: 5, V: 1}); m != 0 {
		t.Fatalf("no-op batch merged %d", m)
	}
	if st := l.Router.Stats(); st.Rounds != before.Rounds || st.Exchanges != before.Exchanges {
		t.Fatalf("no-op batch exchanged: rounds %d → %d, exchanges %d → %d",
			before.Rounds, st.Rounds, before.Exchanges, st.Exchanges)
	}
	requireLabels(t, l, want)

	// {5,15}: the primary copy at shard 0 merges nothing, the ghost copy
	// at shard 1 joins 5 to {1,15}. The batch must still exchange.
	if m := add(graph.Edge{U: 5, V: 15}); m != 0 {
		t.Fatalf("primary copy merged %d, want 0", m)
	}
	if st := l.Router.Stats(); st.Exchanges != before.Exchanges+1 {
		t.Fatalf("ghost-only merge ran %d exchanges, want 1", st.Exchanges-before.Exchanges)
	}
	requireLabels(t, l, want)
	if conn, err := l.Router.Connected(5, 15); err != nil || !conn {
		t.Fatalf("Connected(5,15) = %v, %v", conn, err)
	}
}
