package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

func TestIncrementalBasics(t *testing.T) {
	inc := NewIncremental(5)
	if inc.NumComponents() != 5 || inc.NumVertices() != 5 {
		t.Fatalf("fresh: %d components", inc.NumComponents())
	}
	if inc.Connected(0, 1) {
		t.Fatal("fresh vertices connected")
	}
	if !inc.AddEdge(0, 1) {
		t.Fatal("first edge must merge")
	}
	if inc.AddEdge(1, 0) {
		t.Fatal("duplicate edge must not merge")
	}
	if inc.AddEdge(2, 2) {
		t.Fatal("self loop must not merge")
	}
	if !inc.Connected(0, 1) || inc.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	if inc.NumComponents() != 4 {
		t.Fatalf("components = %d, want 4", inc.NumComponents())
	}
	inc.AddEdge(2, 3)
	inc.AddEdge(3, 4)
	inc.AddEdge(0, 4) // merges the two chains
	if inc.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", inc.NumComponents())
	}
	if !inc.Connected(1, 2) {
		t.Fatal("transitive connectivity missing")
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	g := gen.Kronecker(11, 8, gen.Graph500, 17)
	inc := NewIncremental(g.NumVertices())
	for _, e := range g.Edges() {
		inc.AddEdge(e.U, e.V)
	}
	labels := inc.Labels(0)
	batch := Run(g, DefaultOptions())
	for v := range labels {
		if labels[v] != batch.Get(graph.V(v)) {
			t.Fatalf("vertex %d: incremental %d vs batch %d", v, labels[v], batch.Get(graph.V(v)))
		}
	}
	oracleComponents := batchComponentCount(batch)
	if inc.NumComponents() != oracleComponents {
		t.Fatalf("NumComponents = %d, want %d", inc.NumComponents(), oracleComponents)
	}
}

func batchComponentCount(p Parent) int {
	seen := map[graph.V]bool{}
	for v := range p {
		seen[p.Get(graph.V(v))] = true
	}
	return len(seen)
}

func TestIncrementalConcurrentStreaming(t *testing.T) {
	g := gen.URandDegree(10_000, 16, 23)
	edges := g.Edges()
	for trial := 0; trial < 5; trial++ {
		inc := NewIncremental(g.NumVertices())
		var merges atomic.Int64
		concurrent.For(len(edges), 8, func(i int) {
			if inc.AddEdge(edges[i].U, edges[i].V) {
				merges.Add(1)
			}
		})
		oracle, sizes := graph.SequentialCC(g)
		_ = oracle
		wantMerges := int64(g.NumVertices() - len(sizes))
		if merges.Load() != wantMerges {
			t.Fatalf("trial %d: %d merges, want %d (each counted exactly once)",
				trial, merges.Load(), wantMerges)
		}
		if inc.NumComponents() != len(sizes) {
			t.Fatalf("trial %d: %d components, want %d", trial, inc.NumComponents(), len(sizes))
		}
	}
}

func TestIncrementalQueriesDuringStreaming(t *testing.T) {
	// Interleave queries with insertions from multiple goroutines; a
	// true Connected answer must be durable.
	const n = 2000
	inc := NewIncremental(n)
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 6000)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))}
	}
	var falseNegatives atomic.Int64
	concurrent.For(len(edges), 8, func(i int) {
		e := edges[i]
		inc.AddEdge(e.U, e.V)
		// Immediately after inserting {u,v}, they must be connected.
		if e.U != e.V && !inc.Connected(e.U, e.V) {
			falseNegatives.Add(1)
		}
	})
	if falseNegatives.Load() != 0 {
		t.Fatalf("%d queries missed their own insertion", falseNegatives.Load())
	}
}

func TestIncrementalCompressKeepsSemantics(t *testing.T) {
	inc := NewIncremental(100)
	for v := graph.V(1); v < 100; v++ {
		inc.AddEdge(v-1, v)
	}
	inc.Labels(2)
	if inc.NumComponents() != 1 || !inc.Connected(0, 99) {
		t.Fatal("compress broke connectivity")
	}
	if inc.Find(99) != 0 {
		t.Fatalf("representative = %d, want 0", inc.Find(99))
	}
}

func TestIncrementalComponentsMatchesSerialUnionFind(t *testing.T) {
	g := gen.TwitterLike(3000, 6, 7)
	inc := NewIncremental(g.NumVertices())
	for _, e := range g.Edges() {
		inc.AddEdge(e.U, e.V)
	}
	labels := inc.Components()
	oracle, sizes := graph.SequentialCC(g)
	// Same partition: equal labels iff equal oracle components.
	fwd := map[graph.V]int32{}
	rev := map[int32]graph.V{}
	for v := range labels {
		l, o := labels[v], oracle[v]
		if want, ok := fwd[l]; ok && want != o {
			t.Fatalf("label %d spans oracle components %d and %d", l, want, o)
		}
		if want, ok := rev[o]; ok && want != l {
			t.Fatalf("oracle component %d got labels %d and %d", o, want, l)
		}
		fwd[l], rev[o] = o, l
	}
	if len(fwd) != len(sizes) {
		t.Fatalf("%d distinct labels, oracle has %d components", len(fwd), len(sizes))
	}
	// Components must return an owned copy: mutating it cannot disturb
	// the live structure.
	labels[0] = 999999
	if inc.Find(0) == 999999 {
		t.Fatal("Components aliases live state")
	}
}

func TestIncrementalComponentSize(t *testing.T) {
	g := gen.URandComponents(2000, 8, 0.25, 5)
	inc := NewIncremental(g.NumVertices())
	for _, e := range g.Edges() {
		inc.AddEdge(e.U, e.V)
	}
	oracle, sizes := graph.SequentialCC(g)
	for _, v := range []graph.V{0, 1, 99, 777, 1999} {
		want := sizes[oracle[v]]
		if got := inc.ComponentSize(v); got != want {
			t.Fatalf("ComponentSize(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestRestoreIncrementalRoundTrip(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 3)
	inc := NewIncremental(g.NumVertices())
	edges := g.Edges()
	half := len(edges) / 2
	for _, e := range edges[:half] {
		inc.AddEdge(e.U, e.V)
	}
	snap := inc.Snapshot(0)
	restored, err := RestoreIncremental(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumComponents() != inc.NumComponents() {
		t.Fatalf("restored %d components, want %d", restored.NumComponents(), inc.NumComponents())
	}
	// Streaming the remaining edges into the restored structure must
	// land exactly where the uninterrupted run does.
	for _, e := range edges[half:] {
		inc.AddEdge(e.U, e.V)
		restored.AddEdge(e.U, e.V)
	}
	a, b := inc.Components(), restored.Components()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: %d vs restored %d", v, a[v], b[v])
		}
	}
}

func TestRestoreIncrementalRejectsBadLabels(t *testing.T) {
	if _, err := RestoreIncremental([]graph.V{0, 2, 2}); err == nil {
		t.Fatal("labels violating π(x) ≤ x accepted")
	}
}

// TestIncrementalMixedConcurrentDurable hammers one structure with
// concurrent AddEdge, Connected, NumComponents, and Snapshot calls
// (run under -race in the verify recipe). It asserts the serving-layer
// contract: a true Connected answer never reverts, NumComponents is
// non-increasing, and the final state matches serial union-find.
func TestIncrementalMixedConcurrentDurable(t *testing.T) {
	g := gen.URandDegree(4000, 8, 11)
	edges := g.Edges()
	inc := NewIncremental(g.NumVertices())

	const writers, readers = 4, 4
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	type pair struct{ u, v graph.V }
	sawTrue := make([][]pair, readers)

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := w; i < len(edges); i += writers {
				inc.AddEdge(edges[i].U, edges[i].V)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			n := inc.NumVertices()
			lastComponents := n + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
				if inc.Connected(u, v) {
					sawTrue[r] = append(sawTrue[r], pair{u, v})
				}
				if c := inc.NumComponents(); c > lastComponents {
					t.Errorf("NumComponents grew: %d after %d", c, lastComponents)
					return
				} else {
					lastComponents = c
				}
				if rng.Intn(64) == 0 {
					inc.Snapshot(1) // compress concurrently with the stream
				}
			}
		}(r)
	}
	// Writers finish first; readers keep mixing queries over the final
	// state briefly, then stop.
	writeWG.Wait()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	readWG.Wait()

	oracle, sizes := graph.SequentialCC(g)
	if inc.NumComponents() != len(sizes) {
		t.Fatalf("final components = %d, oracle %d", inc.NumComponents(), len(sizes))
	}
	for r, pairs := range sawTrue {
		for _, p := range pairs {
			if !inc.Connected(p.u, p.v) {
				t.Fatalf("reader %d: true Connected(%d,%d) reverted", r, p.u, p.v)
			}
			if oracle[p.u] != oracle[p.v] {
				t.Fatalf("reader %d: Connected(%d,%d) true but oracle disagrees", r, p.u, p.v)
			}
		}
	}
}

// TestApplyBatchResolvesWinners: a hook may land on a non-root vertex
// l (here 5, inside the tree 7→5→4→3), and l's pre-batch root 3 may
// itself be hooked later in the same batch. ApplyBatch reports the
// merge with winner 3, the root 9's component actually joined first in
// descending-loser order, and compresses both losers and every endpoint.
func TestApplyBatchResolvesWinners(t *testing.T) {
	inc := NewIncremental(10)
	inc.p[7], inc.p[5], inc.p[4] = 5, 4, 3
	inc.components.Store(int64(inc.p.CountTrees()))
	merges := inc.ApplyBatch([]graph.Edge{{U: 7, V: 9}, {U: 4, V: 1}}, 1)
	want := []Merge{{Edge: 0, Winner: 3, Loser: 9}, {Edge: 1, Winner: 1, Loser: 3}}
	if !slices.Equal(merges, want) {
		t.Fatalf("merges = %+v, want %+v", merges, want)
	}
	for _, v := range []graph.V{9, 3, 7, 4, 1} {
		if got := inc.p.Get(v); got != 1 {
			t.Errorf("π(%d) = %d after the batch, want root 1", v, got)
		}
	}
	if inc.NumComponents() != 5 {
		t.Errorf("components = %d, want 5", inc.NumComponents())
	}
}

// TestApplyBatchKeepsPreBatchPaths pins why ApplyBatch links with the
// read-only climb. Edge 0 hooks root 2 under 1, edge 1 climbs from 4
// through 3 and 2 to hook 1 under 0, and edge 2 hooks root 5 under 3,
// whose pre-batch root is 2. The halving climb would have stored
// π(3) = 1 on edge 1's way up, so the winner walk from 3 would skip 2
// and name 1, with the wrong pre-merge size (1, not 3).
func TestApplyBatchKeepsPreBatchPaths(t *testing.T) {
	inc, err := RestoreIncremental([]graph.V{0, 1, 2, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	merges := inc.ApplyBatch([]graph.Edge{{U: 2, V: 1}, {U: 4, V: 0}, {U: 4, V: 5}}, 1)
	want := []Merge{{Edge: 2, Winner: 2, Loser: 5}, {Edge: 0, Winner: 1, Loser: 2}, {Edge: 1, Winner: 0, Loser: 1}}
	if !slices.Equal(merges, want) {
		t.Fatalf("merges = %+v, want %+v", merges, want)
	}
}

// TestApplyBatchFoldIsExact streams random batches through ApplyBatch
// and replays each batch's merges, in the returned order, through a
// serial union-find: every merge must join two distinct current roots,
// the replay must reproduce the live partition, and every loser and
// endpoint must point straight at its root afterwards.
func TestApplyBatchFoldIsExact(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(p)))
		inc := NewIncremental(n)
		parent := make([]int, n) // the replay: roots are component minima
		for i := range parent {
			parent[i] = i
		}
		find := func(x int) int {
			for parent[x] != x {
				x = parent[x]
			}
			return x
		}
		total := 0
		for batch := 0; batch < 60; batch++ {
			edges := make([]graph.Edge, 1+rng.Intn(600))
			for i := range edges {
				edges[i] = graph.Edge{U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))}
			}
			merges := inc.ApplyBatch(edges, p)
			for i, m := range merges {
				if i > 0 && m.Loser >= merges[i-1].Loser {
					t.Fatalf("p=%d batch %d: losers not strictly descending: %+v", p, batch, merges)
				}
				w, l := int(m.Winner), int(m.Loser)
				if w >= l || find(w) != w || find(l) != l {
					t.Fatalf("p=%d batch %d: merge %+v does not join two current roots", p, batch, m)
				}
				parent[l] = w
			}
			total += len(merges)
			for v := 0; v < n; v++ {
				if got, want := inc.Find(graph.V(v)), graph.V(find(v)); got != want {
					t.Fatalf("p=%d batch %d: vertex %d has root %d, replay says %d", p, batch, v, got, want)
				}
			}
			flat := func(v graph.V) bool { r := inc.p.Get(v); return inc.p.Get(r) == r }
			for _, m := range merges {
				if !flat(m.Loser) {
					t.Fatalf("p=%d batch %d: loser %d not pointed at its root", p, batch, m.Loser)
				}
			}
			for _, e := range edges {
				if !flat(e.U) || !flat(e.V) {
					t.Fatalf("p=%d batch %d: endpoint of %v not pointed at its root", p, batch, e)
				}
			}
		}
		if inc.NumComponents() != n-total {
			t.Fatalf("p=%d: components = %d, want %d", p, inc.NumComponents(), n-total)
		}
	}
}

// TestCompressEndpoints: after the count-only AddEdges of a seeded
// random batch, CompressEndpoints leaves every endpoint of the batch at
// depth ≤ 1 and moves no vertex's root. The links leave some endpoint
// deeper than that, so the check is not vacuous.
func TestCompressEndpoints(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(p)))
		inc := NewIncremental(n)
		deep := 0
		for batch := 0; batch < 60; batch++ {
			edges := make([]graph.Edge, 1+rng.Intn(600))
			for i := range edges {
				edges[i] = graph.Edge{U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))}
			}
			inc.AddEdges(edges, p, nil)
			roots := make([]graph.V, n)
			for v := range roots {
				roots[v] = inc.Find(graph.V(v))
			}
			for _, e := range edges {
				if inc.p.Depth(e.U) > 1 || inc.p.Depth(e.V) > 1 {
					deep++
				}
			}
			inc.CompressEndpoints(edges, p)
			for _, e := range edges {
				if du, dv := inc.p.Depth(e.U), inc.p.Depth(e.V); du > 1 || dv > 1 {
					t.Fatalf("p=%d batch %d: edge %v left at depths %d and %d", p, batch, e, du, dv)
				}
			}
			for v, want := range roots {
				if got := inc.Find(graph.V(v)); got != want {
					t.Fatalf("p=%d batch %d: vertex %d moved from root %d to %d", p, batch, v, want, got)
				}
			}
		}
		if deep == 0 {
			t.Fatalf("p=%d: no endpoint was deeper than 1 before CompressEndpoints", p)
		}
	}
}

func BenchmarkIncrementalAddEdge(b *testing.B) {
	const n = 1 << 16
	inc := NewIncremental(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
}
