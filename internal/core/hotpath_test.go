package core

import (
	"runtime"
	"sync"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// TestCompressFromFlattens builds a deep chain and checks CompressFrom
// points every vertex at the root with a single pass, leaving roots and
// already-flat vertices untouched.
func TestCompressFromFlattens(t *testing.T) {
	const n = 100
	p := NewParent(n)
	for v := n - 1; v > 0; v-- {
		p.set(graph.V(v), graph.V(v-1)) // chain n-1 -> n-2 -> ... -> 0
	}
	for v := 1; v < n; v++ {
		CompressFrom(p, graph.V(v), p.Get(graph.V(v)))
	}
	for v := 0; v < n; v++ {
		if p.Get(graph.V(v)) != 0 {
			t.Fatalf("vertex %d: π = %d, want 0", v, p.Get(graph.V(v)))
		}
	}
}

// TestCompressAllFullyFlattens pins the gathered compress kernel's
// contract: after CompressAll every vertex points directly at its root,
// and the partition matches a reference Find snapshot.
func TestCompressAllFullyFlattens(t *testing.T) {
	g := gen.URandDegree(5000, 16, 41)
	for _, par := range []int{1, 4} {
		p := NewParent(g.NumVertices())
		for _, e := range g.Edges() {
			Link(p, e.U, e.V)
		}
		roots := make([]graph.V, len(p))
		for v := range p {
			roots[v] = p.Find(graph.V(v))
		}
		CompressAll(p, par)
		for v := range p {
			if got := p.Get(graph.V(v)); got != roots[v] {
				t.Fatalf("par=%d vertex %d: π = %d, want root %d", par, v, got, roots[v])
			}
		}
	}
}

// variantCases are the non-default Options that must not change the
// result: every one must reproduce the default Run's exact labels
// (labels are canonical component minima, so full equality is the
// right check, not partition equivalence).
func variantCases() map[string]func(*Options) {
	return map[string]func(*Options){
		"noskip":   func(o *Options) { o.SkipLargest = false },
		"nosample": func(o *Options) { o.NeighborRounds = -1; o.SkipLargest = false },
		"rounds-3": func(o *Options) { o.NeighborRounds = 3 },
		"grain-64": func(o *Options) { o.EdgeGrain = 64 },
	}
}

// TestVariantOptionsMatchDefaultRun sweeps every variant over a
// giant-component graph, a multi-component graph, and a power-law
// graph, at 1 and 4 workers.
func TestVariantOptionsMatchDefaultRun(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"urand":      gen.URandDegree(6000, 16, 43),
		"components": gen.URandComponents(4000, 8, 0.25, 47),
		"kron":       gen.Kronecker(11, 8, gen.Graph500, 53),
	}
	for gname, g := range graphs {
		want := Run(g, DefaultOptions()).Labels()
		for vname, mod := range variantCases() {
			for _, par := range []int{1, 4} {
				opt := DefaultOptions()
				opt.Parallelism = par
				mod(&opt)
				got := Run(g, opt).Labels()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s/%s par=%d: label[%d] = %d, want %d",
							gname, vname, par, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestVariantInstrumentedMatchesRun checks the instrumented runner
// matches Run under every variant: same labels, non-empty stats.
func TestVariantInstrumentedMatchesRun(t *testing.T) {
	g := gen.Kronecker(11, 8, gen.Graph500, 59)
	for vname, mod := range variantCases() {
		opt := DefaultOptions()
		mod(&opt)
		want := Run(g, opt).Labels()
		got, st := RunInstrumented(g, opt)
		for v := range want {
			if got.Labels()[v] != want[v] {
				t.Fatalf("%s: instrumented label[%d] = %d, want %d", vname, v, got.Labels()[v], want[v])
			}
		}
		if st.Link.Calls == 0 {
			t.Fatalf("%s: no link stats collected", vname)
		}
	}
}

// TestNewParentAligned pins the 64-byte alignment guarantee and the
// identity initialization across sizes, including the empty Parent.
func TestNewParentAligned(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 1000, 1 << 16} {
		p := NewParent(n)
		if len(p) != n {
			t.Fatalf("n=%d: len = %d", n, len(p))
		}
		if !p.Aligned() {
			t.Fatalf("n=%d: parent base not cache-line aligned", n)
		}
		for i := range p {
			if p[i] != uint32(i) {
				t.Fatalf("n=%d: p[%d] = %d, not identity", n, i, p[i])
			}
		}
	}
	// Appending past capacity must not be possible into the slack
	// region (the three-index slice pins cap to len).
	p := NewParent(8)
	if cap(p) != len(p) {
		t.Fatalf("cap = %d, want %d (slack must not leak)", cap(p), len(p))
	}
}

// BenchmarkCompressVariants compares the compress kernels on the forest
// two sampling rounds leave behind — the state every inter-round
// compress actually sees.
func BenchmarkCompressVariants(b *testing.B) {
	g := gen.Kronecker(16, 16, gen.Graph500, 1)
	n := g.NumVertices()
	offsets, targets := g.Adjacency(0, n)
	seed := NewParent(n)
	for r := int64(0); r < 2; r++ {
		for u := 0; u < n; u++ {
			if k := offsets[u] + r; k < offsets[u+1] {
				Link(seed, graph.V(u), targets[k])
			}
		}
	}
	verts := float64(n)
	run := func(b *testing.B, pass func(Parent)) {
		p := make(Parent, n)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(p, seed)
			b.StartTimer()
			pass(p)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/verts, "ns/vert")
	}
	b.Run("full-gathered", func(b *testing.B) {
		run(b, func(p Parent) { CompressAll(p, 1) })
	})
	b.Run("full-walking", func(b *testing.B) {
		run(b, func(p Parent) {
			for v := 0; v < n; v++ {
				Compress(p, graph.V(v))
			}
		})
	})
}

// BenchmarkParentFalseSharing is the regression guard for the aligned
// allocation: workers hammer adjacent 16-entry π regions — the
// boundary pattern of the compress pass's chunks — on an aligned base
// (region boundaries are line boundaries) vs a deliberately misaligned
// one (every boundary straddles a shared line). A large aligned/
// misaligned gap appearing here is the false sharing NewParent's
// alignment removes.
func BenchmarkParentFalseSharing(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	const region = cacheLine / 4 // entries per worker region: one line when aligned
	n := workers * region
	hammer := func(b *testing.B, p Parent) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := graph.V(w * region)
					for iter := 0; iter < 4096; iter++ {
						for k := 0; k < region; k++ {
							p.set(base+graph.V(k), graph.V(iter))
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
	b.Run("aligned", func(b *testing.B) {
		p := NewParent(n)
		if !p.Aligned() {
			b.Fatal("expected aligned parent")
		}
		hammer(b, p)
	})
	b.Run("misaligned", func(b *testing.B) {
		raw := newParentUninit(n + 8)
		p := raw[8 : 8+n : 8+n] // shift base half a line off alignment
		for i := range p {
			p[i] = uint32(i)
		}
		if p.Aligned() {
			b.Fatal("expected misaligned parent")
		}
		hammer(b, p)
	})
}
