package gen

import (
	"math"
	"testing"

	"afforest/internal/graph"
)

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := newRNG(43)
	same := 0
	a = newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds collide %d/100 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := newRNG(7)
	counts := make([]int, 10)
	for i := 0; i < 10_000; i++ {
		v := r.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("intn(10) heavily skewed: bucket %d has %d/10000", v, c)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := newRNG(9)
	var sum float64
	for i := 0; i < 10_000; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64() = %v", f)
		}
		sum += f
	}
	if mean := sum / 10_000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("float64 mean = %v, want ~0.5", mean)
	}
}

func TestURandBasicShape(t *testing.T) {
	g := URand(1000, 4000, 1)
	if g.NumVertices() != 1000 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// Dedup + self-loop removal shaves a little off 4000.
	if g.NumEdges() < 3800 || g.NumEdges() > 4000 {
		t.Fatalf("|E| = %d, want ~4000", g.NumEdges())
	}
}

func TestURandDeterministic(t *testing.T) {
	g1 := URand(500, 2000, 99)
	g2 := URand(500, 2000, 99)
	if g1.NumArcs() != g2.NumArcs() {
		t.Fatal("same seed must give same graph")
	}
	for v := 0; v < 500; v++ {
		a, b := g1.Neighbors(graph.V(v)), g2.Neighbors(graph.V(v))
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("same seed must give identical adjacency")
			}
		}
	}
	g3 := URand(500, 2000, 100)
	if g3.NumArcs() == g1.NumArcs() {
		// Arc counts could coincide; compare adjacency of a few vertices.
		diff := false
		for v := 0; v < 500 && !diff; v++ {
			a, b := g1.Neighbors(graph.V(v)), g3.Neighbors(graph.V(v))
			if len(a) != len(b) {
				diff = true
				break
			}
			for i := range a {
				if a[i] != b[i] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestURandDegreeMean(t *testing.T) {
	g := URandDegree(5000, 16, 3)
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 14.5 || avg > 16.5 {
		t.Fatalf("average degree = %.2f, want ~16", avg)
	}
}

func TestURandComponentsStructure(t *testing.T) {
	const n = 4000
	f := 0.25 // expect 4 components of ~1000 vertices
	g := URandComponents(n, 16, f, 5)
	_, sizes := graph.SequentialCC(g)
	big := 0
	for _, s := range sizes {
		if s > 500 {
			big++
		}
	}
	if big != 4 {
		t.Fatalf("got %d large components, want 4 (f=%.2f)", big, f)
	}
	// No edge may cross a block boundary.
	block := int(float64(n) * f)
	for u := graph.V(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(u)/block != int(v)/block {
				t.Fatalf("edge %d-%d crosses block boundary", u, v)
			}
		}
	}
}

func TestURandComponentsGiant(t *testing.T) {
	g := URandComponents(2000, 16, 1.0, 6)
	_, sizes := graph.SequentialCC(g)
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if float64(max) < 0.99*2000 {
		t.Fatalf("f=1 should give one giant component, max=%d", max)
	}
}

func TestURandComponentsPanicsOnBadF(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("f=%v: want panic", f)
				}
			}()
			URandComponents(100, 4, f, 1)
		}()
	}
}

func TestKroneckerShape(t *testing.T) {
	g := Kronecker(12, 16, Graph500, 7)
	if g.NumVertices() != 1<<12 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	if g.NumEdges() < 1<<14 || g.NumEdges() > 16<<12 {
		t.Fatalf("|E| = %d out of plausible range", g.NumEdges())
	}
	// Kronecker graphs are heavy-tailed: max degree far above average.
	st := graph.ComputeStats(g, 1)
	if float64(st.MaxDegree) < 10*st.AvgDegree {
		t.Fatalf("kron not heavy-tailed: max=%d avg=%.1f", st.MaxDegree, st.AvgDegree)
	}
	// And many isolated vertices (a known Kronecker property).
	if st.NumIsolated == 0 {
		t.Fatal("kron should have isolated vertices")
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	g1 := Kronecker(10, 8, Graph500, 3)
	g2 := Kronecker(10, 8, Graph500, 3)
	if g1.NumArcs() != g2.NumArcs() {
		t.Fatal("same seed must give same kron graph")
	}
}

func TestTwitterLikeShape(t *testing.T) {
	g := TwitterLike(5000, 12, 11)
	st := graph.ComputeStats(g, 1)
	if st.Components != 1 {
		t.Fatalf("preferential attachment must be connected, C=%d", st.Components)
	}
	if float64(st.MaxDegree) < 5*st.AvgDegree {
		t.Fatalf("twitter-like not heavy-tailed: max=%d avg=%.1f", st.MaxDegree, st.AvgDegree)
	}
	if st.ApproxDiam > 10 {
		t.Fatalf("twitter-like diameter too high: %d", st.ApproxDiam)
	}
	if st.AvgDegree < 15 || st.AvgDegree > 25 {
		t.Fatalf("avg degree = %.1f, want ~2*attach", st.AvgDegree)
	}
}

func TestTwitterLikeTinyN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 13} {
		g := TwitterLike(n, 12, 1)
		if g.NumVertices() != n {
			t.Fatalf("n=%d: |V|=%d", n, g.NumVertices())
		}
	}
}

func TestRoadShape(t *testing.T) {
	g := Road(10_000, 13)
	st := graph.ComputeStats(g, 1)
	if st.MaxDegree > 4 {
		t.Fatalf("road max degree = %d, want <=4", st.MaxDegree)
	}
	if st.AvgDegree < 3.0 || st.AvgDegree > 3.9 {
		t.Fatalf("road avg degree = %.2f", st.AvgDegree)
	}
	// Grid diameter ~ 2*side = 200 for a 100x100 grid.
	if st.ApproxDiam < 100 {
		t.Fatalf("road diameter = %d, want high (Ω(√n))", st.ApproxDiam)
	}
	if st.MaxCompFrac < 0.9 {
		t.Fatalf("road giant component fraction = %.2f", st.MaxCompFrac)
	}
}

func TestRoadGridFullKeepIsConnectedLattice(t *testing.T) {
	g := RoadGrid(20, 30, 1.0, 1)
	if g.NumVertices() != 600 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	wantEdges := int64(19*30 + 20*29)
	if g.NumEdges() != wantEdges {
		t.Fatalf("|E| = %d, want %d", g.NumEdges(), wantEdges)
	}
	_, sizes := graph.SequentialCC(g)
	if len(sizes) != 1 {
		t.Fatalf("full lattice must be connected, C=%d", len(sizes))
	}
}

func TestWebLikeShape(t *testing.T) {
	g := WebLike(20_000, 20, 17)
	st := graph.ComputeStats(g, 1)
	if float64(st.MaxDegree) < 8*st.AvgDegree {
		t.Fatalf("web not heavy-tailed: max=%d avg=%.1f", st.MaxDegree, st.AvgDegree)
	}
	if st.MaxCompFrac < 0.8 {
		t.Fatalf("web giant component = %.2f of |V|", st.MaxCompFrac)
	}
	// Locality: most arcs should span < n/4 in id space.
	var local, total int64
	for u := graph.V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			d := int64(u) - int64(v)
			if d < 0 {
				d = -d
			}
			if d < int64(g.NumVertices()/4) {
				local++
			}
			total++
		}
	}
	if float64(local)/float64(total) < 0.6 {
		t.Fatalf("web locality too low: %d/%d arcs local", local, total)
	}
}

func TestRegularShape(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		g := Regular(2001, d, 23)
		st := graph.ComputeStats(g, 1)
		// Dedup can shave a few duplicate edges; degrees near d.
		if st.MaxDegree > d {
			t.Fatalf("d=%d: max degree %d exceeds d", d, st.MaxDegree)
		}
		if st.AvgDegree < float64(d)-0.3 {
			t.Fatalf("d=%d: avg degree %.2f too low", d, st.AvgDegree)
		}
		if d >= 3 && st.Components != 1 {
			t.Fatalf("d=%d: random regular graph should be connected, C=%d", d, st.Components)
		}
	}
}

func TestRegularTiny(t *testing.T) {
	g := Regular(1, 4, 1)
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("Regular(1): %v", g)
	}
	g = Regular(2, 3, 1)
	if g.NumEdges() != 1 { // all parallel edges collapse
		t.Fatalf("Regular(2,3): %v", g)
	}
}

func TestSuiteAllBuildable(t *testing.T) {
	for _, sg := range Suite() {
		g := sg.Build(10, 77)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", sg.Name)
		}
		if sg.PaperAnalogue == "" {
			t.Fatalf("%s: missing analogue description", sg.Name)
		}
	}
}

func TestByName(t *testing.T) {
	sg, err := ByName("kron")
	if err != nil || sg.Name != "kron" {
		t.Fatalf("ByName(kron): %v %v", sg, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) must fail")
	}
	if len(SuiteNames()) != 6 {
		t.Fatalf("suite size = %d, want 6", len(SuiteNames()))
	}
}

func BenchmarkURandScale16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		URandDegree(1<<16, 16, 1)
	}
}

func BenchmarkKroneckerScale16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Kronecker(16, 16, Graph500, 1)
	}
}

// BenchmarkBuild20 times graph.Build alone on the raw edge streams of
// urand-20 and kron-20, the batch benchmark's inputs. Their 2^20-vertex
// arrays and 16–32 M arcs are far larger than the caches, so the
// builder's cache misses show, as they do not in the graph package's
// BenchmarkBuild100k. ns/arc is per input arc, two per edge.
func BenchmarkBuild20(b *testing.B) {
	const scale = 20
	n := 1 << scale
	for _, bc := range []struct {
		name  string
		edges func() []graph.Edge
	}{
		{"urand", func() []graph.Edge {
			// URandDegree(n, 16, 1)'s edge stream.
			edges := make([]graph.Edge, 8*n)
			for i := range edges {
				r := newRNG(mix(1 ^ uint64(i)*0x9e3779b97f4a7c15))
				edges[i] = graph.Edge{U: graph.V(r.intn(n)), V: graph.V(r.intn(n))}
			}
			return edges
		}},
		{"kron", func() []graph.Edge { return kronEdges(scale, 16, Graph500, 1) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			edges := bc.edges()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.Build(edges, graph.BuildOptions{NumVertices: n})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(edges)), "ns/arc")
		})
	}
}

// BenchmarkKronecker20 is Kronecker(20, 16, Graph500, 1) end to end:
// the edge draw plus the build. ns/arc is per drawn arc.
func BenchmarkKronecker20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Kronecker(20, 16, Graph500, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*16<<20), "ns/arc")
}
