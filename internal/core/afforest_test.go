package core

import (
	"reflect"
	"slices"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

func TestRunMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(10, 321)
		p := Run(g, DefaultOptions())
		if bad := p.Validate(); bad >= 0 {
			t.Fatalf("%s: invariant violated at %d", sg.Name, bad)
		}
		checkAgainstOracle(t, g, "afforest/"+sg.Name, p.Labels())
	}
}

func TestRunWithoutSkipMatchesOracle(t *testing.T) {
	g := gen.URandDegree(5000, 16, 7)
	opt := DefaultOptions()
	opt.SkipLargest = false
	p := Run(g, opt)
	checkAgainstOracle(t, g, "noskip", p.Labels())
}

func TestRunNeighborRoundsSweep(t *testing.T) {
	g := gen.WebLike(4000, 12, 3)
	for _, rounds := range []int{-1, 1, 2, 3, 8, 100} {
		opt := DefaultOptions()
		opt.NeighborRounds = rounds
		p := Run(g, opt)
		checkAgainstOracle(t, g, "rounds", p.Labels())
	}
}

func TestRunParallelismSweep(t *testing.T) {
	g := gen.Kronecker(12, 8, gen.Graph500, 4)
	for _, par := range []int{1, 2, 4, 16} {
		opt := DefaultOptions()
		opt.Parallelism = par
		p := Run(g, opt)
		checkAgainstOracle(t, g, "par", p.Labels())
	}
}

func TestRunRepeatedIsDeterministicPartition(t *testing.T) {
	// The partition (not necessarily intermediate states) must be the
	// same across runs; labels are canonical minimum ids, so the final
	// arrays must be fully identical.
	g := gen.TwitterLike(3000, 8, 6)
	p1 := Run(g, DefaultOptions())
	p2 := Run(g, DefaultOptions())
	for v := range p1 {
		if p1[v] != p2[v] {
			t.Fatalf("labels differ at %d: %d vs %d", v, p1[v], p2[v])
		}
	}
}

func TestRunLabelsAreMinimumIDs(t *testing.T) {
	g := gen.URandComponents(3000, 8, 0.25, 9)
	p := Run(g, DefaultOptions())
	// Every label must label itself (roots are fixed points) and be
	// the minimum id of its component.
	seen := map[graph.V]graph.V{}
	for v := range p {
		l := p.Get(graph.V(v))
		if _, ok := seen[l]; !ok {
			seen[l] = graph.V(v) // first (lowest) vertex with this label
		}
	}
	for l, firstV := range seen {
		if l != firstV {
			t.Fatalf("label %d: first member is %d — labels must be component minima", l, firstV)
		}
		if p.Get(l) != l {
			t.Fatalf("label %d is not a fixed point", l)
		}
	}
}

func TestRunEmptyAndTiny(t *testing.T) {
	empty := graph.Build(nil, graph.BuildOptions{})
	if p := Run(empty, DefaultOptions()); len(p) != 0 {
		t.Fatalf("empty graph: len(π) = %d", len(p))
	}
	single := graph.Build(nil, graph.BuildOptions{NumVertices: 1})
	if p := Run(single, DefaultOptions()); len(p) != 1 || p[0] != 0 {
		t.Fatalf("singleton: %v", p)
	}
	edgeless := graph.Build(nil, graph.BuildOptions{NumVertices: 100})
	p := Run(edgeless, DefaultOptions())
	for v := range p {
		if p[v] != uint32(v) {
			t.Fatalf("edgeless graph: vertex %d labeled %d", v, p[v])
		}
	}
}

func TestRunIsolatedVerticesKeepOwnLabels(t *testing.T) {
	// kron graphs have many isolated vertices; each must be its own
	// component.
	g := gen.Kronecker(10, 4, gen.Graph500, 8)
	p := Run(g, DefaultOptions())
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.V(v)) == 0 && p.Get(graph.V(v)) != graph.V(v) {
			t.Fatalf("isolated vertex %d absorbed into %d", v, p.Get(graph.V(v)))
		}
	}
}

func TestSampleFrequentElementFindsGiant(t *testing.T) {
	// π where 90% of entries point at 7.
	const n = 10_000
	p := NewParent(n)
	for v := 1000; v < n; v++ {
		p[v] = 7
	}
	for _, seed := range []uint64{0, 1, 2, 42} {
		if got := SampleFrequentElement(p, 1024, seed); got != 7 {
			t.Fatalf("seed %d: mode = %d, want 7", seed, got)
		}
	}
}

func TestSampleFrequentElementSmallN(t *testing.T) {
	p := NewParent(3)
	p[1], p[2] = 0, 0
	if got := SampleFrequentElement(p, 1024, 1); got != 0 {
		t.Fatalf("mode = %d, want 0", got)
	}
	if got := SampleFrequentElement(Parent{}, 10, 1); got != 0 {
		t.Fatalf("empty π: mode = %d", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.rounds() != 2 {
		t.Fatalf("zero NeighborRounds → %d rounds, want 2", o.rounds())
	}
	o.NeighborRounds = -1
	if o.rounds() != 0 {
		t.Fatalf("negative NeighborRounds → %d, want 0", o.rounds())
	}
	o.NeighborRounds = 5
	if o.rounds() != 5 {
		t.Fatalf("rounds = %d", o.rounds())
	}
	if o.sampleSize() != 1024 {
		t.Fatalf("default sample size = %d", o.sampleSize())
	}
	o.SampleSize = 64
	if o.sampleSize() != 64 {
		t.Fatalf("sample size = %d", o.sampleSize())
	}
	d := DefaultOptions()
	if d.NeighborRounds != 2 || !d.SkipLargest {
		t.Fatalf("DefaultOptions = %+v", d)
	}
}

// TestOptionsKnobBudget pins the exported Options fields to a literal
// list. A new knob has to edit this list in the same change, so adding
// one is always visible in review.
func TestOptionsKnobBudget(t *testing.T) {
	want := []string{
		"NeighborRounds", "SkipLargest", "SampleSize", "Parallelism",
		"EdgeGrain", "Seed", "Observer",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields = %v, want %v", got, want)
	}
}

func TestEdgesProcessedSkipSavesWork(t *testing.T) {
	// Giant-component graph: skipping should avoid most of the final
	// phase (the headline work-efficiency claim, Section IV-D).
	g := gen.URandDegree(20_000, 16, 11)
	withSkip := DefaultOptions()
	noSkip := DefaultOptions()
	noSkip.SkipLargest = false

	pSkip, total := EdgesProcessed(g, withSkip)
	pFull, _ := EdgesProcessed(g, noSkip)
	if pFull != total {
		t.Fatalf("without skip, all %d arcs must be processed, got %d", total, pFull)
	}
	if pSkip*4 > total {
		t.Fatalf("skip processed %d of %d arcs — expected <25%% on a giant-component graph", pSkip, total)
	}
}

func TestRunInstrumentedMatchesRun(t *testing.T) {
	g := gen.WebLike(5000, 12, 13)
	p1 := Run(g, DefaultOptions())
	p2, st := RunInstrumented(g, DefaultOptions())
	for v := range p1 {
		if p1[v] != p2[v] {
			t.Fatalf("instrumented labels differ at %d", v)
		}
	}
	if st.Link.Calls == 0 || st.Link.Iterations == 0 {
		t.Fatalf("no link stats collected: %+v", st.Link)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	// Table II property: mean local iterations stays near 1.
	if m := st.Link.MeanIterations(); m > 3 {
		t.Fatalf("mean link iterations = %.2f — far above the ~1 the paper reports", m)
	}
}

// TestWorkByWorkerMatchesCountedRun pins the Fig 8b work model to the
// counted driver: at Parallelism 1 the model's per-worker link calls
// sum to the Link.Calls RunInstrumented counts, on every suite graph,
// with and without sampling and skipping.
func TestWorkByWorkerMatchesCountedRun(t *testing.T) {
	variants := map[string]func(*Options){
		"default":   func(*Options) {},
		"no skip":   func(o *Options) { o.SkipLargest = false },
		"rounds 1":  func(o *Options) { o.NeighborRounds = 1 },
		"rounds 3":  func(o *Options) { o.NeighborRounds = 3 },
		"rounds -1": func(o *Options) { o.NeighborRounds = -1 },
	}
	for _, sg := range gen.Suite() {
		g := sg.Build(12, 15)
		for name, edit := range variants {
			opt := DefaultOptions()
			edit(&opt)
			opt.Parallelism = 1
			var modeled int64
			for _, c := range WorkByWorker(g, opt, 4) {
				modeled += c
			}
			if _, rs := RunInstrumented(g, opt); modeled != rs.Link.Calls {
				t.Errorf("%s/%s: WorkByWorker sums to %d link calls, RunInstrumented made %d",
					sg.Name, name, modeled, rs.Link.Calls)
			}
		}
	}
}

func BenchmarkAfforestURand(b *testing.B) {
	g := gen.URandDegree(1<<16, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, DefaultOptions())
	}
}

func BenchmarkAfforestKron(b *testing.B) {
	g := gen.Kronecker(16, 16, gen.Graph500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, DefaultOptions())
	}
}
