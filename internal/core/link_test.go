package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

func TestNewParentSelfPointing(t *testing.T) {
	p := NewParent(5)
	for v := graph.V(0); v < 5; v++ {
		if p.Get(v) != v {
			t.Fatalf("π(%d) = %d, want self", v, p.Get(v))
		}
	}
	if p.CountTrees() != 5 || p.MaxDepth() != 0 {
		t.Fatalf("fresh parent: trees=%d depth=%d", p.CountTrees(), p.MaxDepth())
	}
}

func TestLinkMergesTwoSingletons(t *testing.T) {
	p := NewParent(4)
	Link(p, 1, 3)
	if p.Find(1) != p.Find(3) {
		t.Fatal("1 and 3 not merged")
	}
	// Invariant 1: the higher root hooks under the lower.
	if p.Get(3) != 1 {
		t.Fatalf("π(3) = %d, want 1", p.Get(3))
	}
	if p.Find(0) == p.Find(1) || p.Find(2) == p.Find(1) {
		t.Fatal("unrelated vertices merged")
	}
}

func TestLinkIdempotent(t *testing.T) {
	p := NewParent(4)
	Link(p, 0, 1)
	before := append(Parent{}, p...)
	Link(p, 0, 1)
	Link(p, 1, 0)
	for i := range p {
		if p[i] != before[i] {
			t.Fatal("re-linking an intra-tree edge modified π")
		}
	}
}

func TestLinkChainPreservesInvariant(t *testing.T) {
	const n = 100
	p := NewParent(n)
	// Adversarial descending chain.
	for v := n - 1; v > 0; v-- {
		Link(p, graph.V(v), graph.V(v-1))
	}
	if bad := p.Validate(); bad >= 0 {
		t.Fatalf("Invariant 1 violated at vertex %d", bad)
	}
	root := p.Find(0)
	for v := graph.V(0); v < n; v++ {
		if p.Find(v) != root {
			t.Fatalf("vertex %d not in the single component", v)
		}
	}
	if root != 0 {
		t.Fatalf("root = %d, want 0 (minimum id)", root)
	}
}

func TestCompressFlattens(t *testing.T) {
	p := NewParent(6)
	// Hand-build a chain 5->4->3->2->1->0 respecting Invariant 1.
	for v := 1; v < 6; v++ {
		p[v] = uint32(v - 1)
	}
	if p.MaxDepth() != 5 {
		t.Fatalf("setup depth = %d", p.MaxDepth())
	}
	CompressAll(p, 1)
	if p.MaxDepth() != 1 {
		t.Fatalf("depth after compress = %d, want 1", p.MaxDepth())
	}
	for v := graph.V(1); v < 6; v++ {
		if p.Get(v) != 0 {
			t.Fatalf("π(%d) = %d, want 0", v, p.Get(v))
		}
	}
}

func TestCompressIdempotent(t *testing.T) {
	p := NewParent(6)
	for v := 1; v < 6; v++ {
		p[v] = uint32(v - 1)
	}
	CompressAll(p, 1)
	before := append(Parent{}, p...)
	CompressAll(p, 4)
	for i := range p {
		if p[i] != before[i] {
			t.Fatal("compress not idempotent")
		}
	}
}

func TestFindDoesNotMutate(t *testing.T) {
	p := NewParent(4)
	p[3], p[2] = 2, 1
	before := append(Parent{}, p...)
	if p.Find(3) != 1 {
		t.Fatalf("Find(3) = %d", p.Find(3))
	}
	for i := range p {
		if p[i] != before[i] {
			t.Fatal("Find mutated π")
		}
	}
}

func TestValidateDetectsViolation(t *testing.T) {
	p := NewParent(3)
	p[0] = 2 // π(0) > 0 violates Invariant 1
	if p.Validate() != 0 {
		t.Fatalf("Validate = %d, want 0", p.Validate())
	}
}

// checkAgainstOracle runs fn to obtain a labeling of g and compares its
// partition with the sequential BFS oracle.
func checkAgainstOracle(t *testing.T, g *graph.CSR, name string, labels []graph.V) {
	t.Helper()
	oracle, _ := graph.SequentialCC(g)
	// The labelings must induce identical partitions: build the
	// bijection oracleLabel <-> ourLabel.
	fwd := make(map[int32]graph.V)
	rev := make(map[graph.V]int32)
	for v := range oracle {
		o, l := oracle[v], labels[v]
		if want, ok := fwd[o]; ok {
			if want != l {
				t.Fatalf("%s: vertex %d has label %d, same oracle component saw %d", name, v, l, want)
			}
		} else {
			fwd[o] = l
		}
		if want, ok := rev[l]; ok {
			if want != o {
				t.Fatalf("%s: label %d spans oracle components %d and %d", name, l, o, want)
			}
		} else {
			rev[l] = o
		}
	}
}

// TestLinkAllMatchesOracleOnSuite links every arc of each suite graph
// (Run with no rounds and no skipping): Section III's algorithm alone.
func TestLinkAllMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 123)
		p := Run(g, Options{NeighborRounds: -1})
		if bad := p.Validate(); bad >= 0 {
			t.Fatalf("%s: invariant violated at %d", sg.Name, bad)
		}
		checkAgainstOracle(t, g, "all arcs/"+sg.Name, p.Labels())
	}
}

func TestLinkAllEdgeOrderIrrelevant(t *testing.T) {
	g := gen.URandDegree(2000, 8, 5)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		p := NewParent(g.NumVertices())
		for _, e := range edges {
			Link(p, e.U, e.V)
		}
		CompressAll(p, 1)
		checkAgainstOracle(t, g, "shuffled", p.Labels())
	}
}

// TestLinkKernel pins link's report on hand-built π arrays whose
// expected winner, loser and iteration count are written out, for both
// climbs, and checks that LinkRecord reports the same merges and that
// addLink folds the reports into LinkStats. The two climbs make the
// same hook; only the halving one stores its grandparent steps.
func TestLinkKernel(t *testing.T) {
	cases := []struct {
		name          string
		parent        []graph.V // π before the call
		u, v          graph.V
		winner, loser graph.V
		iters         int64
		halved        map[graph.V]graph.V // the grandparent steps the halving climb stores
	}{
		// 1 and 2 already share root 0: the entry comparison is the
		// only iteration.
		{"one tree", []graph.V{0, 0, 0}, 1, 2, 0, 0, 1, nil},
		// Root 3 goes under the smaller root 1.
		{"two singletons", []graph.V{0, 1, 2, 3}, 3, 1, 1, 3, 2, nil},
		// 7→6→5→4 and root 3. The high side 6 is not a root, so the
		// climb jumps to its grandparent 4, which goes under 3. The
		// halving climb stores that step: π(6) = 4.
		{"grandparent climb", []graph.V{0, 1, 2, 3, 4, 4, 5, 6}, 7, 3, 3, 4, 3, map[graph.V]graph.V{6: 4}},
	}
	var st LinkStats
	for _, tc := range cases {
		hooked := slices.Clone(tc.parent)
		if tc.loser != 0 {
			hooked[tc.loser] = tc.winner
		}
		halved := slices.Clone(hooked)
		for x, gp := range tc.halved {
			halved[x] = gp
		}
		for _, cl := range []struct {
			name string
			link func(p Parent, u, v graph.V) (winner, loser graph.V, iters, casFails int64)
			want []graph.V
		}{{"halving", link[halving], halved}, {"read-only", link[readOnly], hooked}} {
			p := Parent(slices.Clone(tc.parent))
			winner, loser, iters, casFails := cl.link(p, tc.u, tc.v)
			if winner != tc.winner || loser != tc.loser || iters != tc.iters || casFails != 0 {
				t.Errorf("%s, %s: link(%d, %d) = (%d, %d, %d, %d), want (%d, %d, %d, 0)",
					tc.name, cl.name, tc.u, tc.v, winner, loser, iters, casFails, tc.winner, tc.loser, tc.iters)
			}
			if !slices.Equal(p, cl.want) {
				t.Errorf("%s, %s: π after link = %v, want %v", tc.name, cl.name, p, cl.want)
			}
		}
		if got := LinkRecord(Parent(slices.Clone(tc.parent)), tc.u, tc.v); got != (tc.loser != 0) {
			t.Errorf("%s: LinkRecord = %v", tc.name, got)
		}
		_, loser, iters, casFails := link[halving](Parent(slices.Clone(tc.parent)), tc.u, tc.v)
		st.addLink(loser, iters, casFails)
	}
	if want := (LinkStats{Calls: 3, Iterations: 6, MaxIters: 3, Merges: 2}); st != want {
		t.Errorf("addLink stats = %+v, want %+v", st, want)
	}
}

// TestLinkConcurrentStress hammers link from many goroutines over many
// runs; any violation of Invariant 1 or wrong final partition fails.
// Invariant 1 is checked on π as each link pass left it, before its
// compress. The kron runs link every arc in the final pass; the urand
// and web runs take the default rounds, whose second round climbs the
// deep trees of first-round roots, so the halving stores race the hooks.
func TestLinkConcurrentStress(t *testing.T) {
	urand, _ := gen.ByName("urand")
	web, _ := gen.ByName("web")
	runs := []struct {
		name string
		g    *graph.CSR
		opt  Options
	}{
		{"kron/all arcs", gen.Kronecker(11, 8, gen.Graph500, 9), Options{NeighborRounds: -1, Parallelism: 8}},
		{"urand/default", urand.Build(12, 9), Options{SkipLargest: true, Parallelism: 8}},
		{"web/default", web.Build(12, 9), Options{SkipLargest: true, Parallelism: 8}},
	}
	for _, r := range runs {
		for trial := 0; trial < 20; trial++ {
			p := RunAudited(r.g, r.opt, func(p Parent, phase string) {
				if phase != obs.PhaseNeighborRound && phase != obs.PhaseFinal {
					return
				}
				if bad := p.Validate(); bad >= 0 {
					t.Fatalf("%s trial %d: invariant violated at %d after %s", r.name, trial, bad, phase)
				}
			})
			checkAgainstOracle(t, r.g, "stress/"+r.name, p.Labels())
		}
	}
}

// TestAdversarialStarLinkDepth reproduces the §V-A worst case: a
// depth-one star whose root has the highest index, processed in
// descending leaf order, forcing long climbs. Correctness must hold
// regardless.
func TestAdversarialStarLinkDepth(t *testing.T) {
	const n = 1000
	// Star center n-1 connected to all others; process edges from leaf
	// n-2 down to leaf 0.
	p := NewParent(n)
	for leaf := n - 2; leaf >= 0; leaf-- {
		Link(p, graph.V(n-1), graph.V(leaf))
	}
	if bad := p.Validate(); bad >= 0 {
		t.Fatalf("invariant violated at %d", bad)
	}
	root := p.Find(0)
	if root != 0 {
		t.Fatalf("root = %d, want 0", root)
	}
	for v := graph.V(0); v < n; v++ {
		if p.Find(v) != 0 {
			t.Fatalf("vertex %d disconnected", v)
		}
	}
}

// TestAdversarialLinearCompress builds the §V-A linear-depth chain and
// verifies compress handles it (quadratic worst case, small n).
func TestAdversarialLinearCompress(t *testing.T) {
	const n = 2000
	p := NewParent(n)
	for v := 1; v < n; v++ {
		p[v] = uint32(v - 1)
	}
	CompressAll(p, 8)
	if p.MaxDepth() != 1 {
		t.Fatalf("depth = %d", p.MaxDepth())
	}
}

// TestLinkQuickPartition checks on random small graphs that linking
// every arc yields the oracle partition (property test).
func TestLinkQuickPartition(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := int(nSeed)%40 + 2
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: graph.V(int(raw[i]) % n), V: graph.V(int(raw[i+1]) % n)})
		}
		g := graph.Build(edges, graph.BuildOptions{NumVertices: n})
		p := Run(g, Options{NeighborRounds: -1, Parallelism: 2})
		if p.Validate() >= 0 {
			return false
		}
		oracle, _ := graph.SequentialCC(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (oracle[u] == oracle[v]) != (p.Get(graph.V(u)) == p.Get(graph.V(v))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsAliasParent(t *testing.T) {
	p := NewParent(3)
	l := p.Labels()
	if len(l) != 3 || &l[0] != &p[0] {
		t.Fatal("Labels must alias π without copying")
	}
}
