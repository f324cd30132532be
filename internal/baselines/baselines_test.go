package baselines

import (
	"testing"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

// assertPartitionMatchesOracle validates that labels induce exactly the
// oracle's component partition.
func assertPartitionMatchesOracle(t *testing.T, g *graph.CSR, name string, labels []graph.V) {
	t.Helper()
	oracle, _ := graph.SequentialCC(g)
	fwd := make(map[int32]graph.V)
	rev := make(map[graph.V]int32)
	for v := range oracle {
		o, l := oracle[v], labels[v]
		if want, ok := fwd[o]; ok && want != l {
			t.Fatalf("%s: vertex %d labeled %d; component already saw %d", name, v, l, want)
		}
		fwd[o] = l
		if want, ok := rev[l]; ok && want != o {
			t.Fatalf("%s: label %d spans two oracle components", name, l)
		}
		rev[l] = o
	}
}

func TestAllAlgorithmsMatchOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 42)
		for _, alg := range All() {
			labels := alg.Run(g, 0)
			if len(labels) != g.NumVertices() {
				t.Fatalf("%s/%s: %d labels for %d vertices", alg.Name, sg.Name, len(labels), g.NumVertices())
			}
			assertPartitionMatchesOracle(t, g, alg.Name+"/"+sg.Name, labels)
		}
	}
}

func TestAllAlgorithmsOnEmptyAndEdgeless(t *testing.T) {
	empty := graph.Build(nil, graph.BuildOptions{})
	edgeless := graph.Build(nil, graph.BuildOptions{NumVertices: 50})
	for _, alg := range All() {
		if got := alg.Run(empty, 2); len(got) != 0 {
			t.Fatalf("%s: empty graph returned %d labels", alg.Name, len(got))
		}
		labels := alg.Run(edgeless, 2)
		for v, l := range labels {
			if l != graph.V(v) {
				t.Fatalf("%s: edgeless vertex %d labeled %d", alg.Name, v, l)
			}
		}
	}
}

func TestAllAlgorithmsManyComponents(t *testing.T) {
	// Fig 8c regime: many medium components.
	g := gen.URandComponents(5000, 8, 0.01, 3)
	for _, alg := range All() {
		assertPartitionMatchesOracle(t, g, alg.Name, alg.Run(g, 0))
	}
}

func TestAllAlgorithmsHighDiameter(t *testing.T) {
	// Path-like worst case for LP and SV iteration counts.
	g := gen.RoadGrid(400, 2, 1.0, 1) // long thin strip, diameter ~400
	for _, alg := range All() {
		assertPartitionMatchesOracle(t, g, alg.Name, alg.Run(g, 0))
	}
}

func TestAllAlgorithmsParallelismSweep(t *testing.T) {
	g := gen.Kronecker(11, 8, gen.Graph500, 5)
	for _, alg := range All() {
		for _, par := range []int{1, 3, 8} {
			assertPartitionMatchesOracle(t, g, alg.Name, alg.Run(g, par))
		}
	}
}

func TestParallelStressRepeats(t *testing.T) {
	// Repeat the lock-free algorithms many times to shake out schedule-
	// dependent bugs.
	g := gen.WebLike(3000, 10, 7)
	for trial := 0; trial < 10; trial++ {
		assertPartitionMatchesOracle(t, g, "sv", SV(g, 8))
		assertPartitionMatchesOracle(t, g, "dobfs", DOBFSCC(g, 8))
		assertPartitionMatchesOracle(t, g, "lp-dd", LPDataDriven(g, 8))
	}
}

func TestSVInstrumentedIterationCount(t *testing.T) {
	// A single edge converges in 2 iterations (1 hooking + 1 verifying).
	g := graph.Build([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{})
	_, iters := SVInstrumented(g, 1, nil)
	if iters < 1 || iters > 3 {
		t.Fatalf("iterations = %d for a single edge", iters)
	}
	// On a high-diameter strip the aggressive full-shortcut keeps the
	// outer iteration count small (the depth cost moves into the
	// shortcut phase); the count must stay bounded and the result exact.
	strip := gen.RoadGrid(256, 2, 1.0, 1)
	depth := 0
	labelsStrip, itersStrip := SVInstrumented(strip, 0, func(pi []graph.V) {
		depth = max(depth, core.Parent(pi).MaxDepth())
	})
	assertPartitionMatchesOracle(t, strip, "sv-strip", labelsStrip)
	if itersStrip < 1 || itersStrip > 40 {
		t.Fatalf("strip iterations = %d, implausible", itersStrip)
	}
	if depth < 1 {
		t.Fatalf("strip max tree depth = %d", depth)
	}
}

// TestSVMaxDepthPerIteration checks the hook Table II reads SV's tree
// depth through: it runs once per outer iteration, after the hook phase
// and before its shortcut, so it sees trees deeper than the shortcut
// leaves (depth one).
func TestSVMaxDepthPerIteration(t *testing.T) {
	g := gen.URandDegree(2000, 8, 9)
	calls, depth := 0, 0
	labels, iters := SVInstrumented(g, 1, func(pi []graph.V) {
		calls++
		depth = max(depth, core.Parent(pi).MaxDepth())
	})
	assertPartitionMatchesOracle(t, g, "sv-depth", labels)
	if calls != iters {
		t.Fatalf("afterHook ran %d times in %d iterations", calls, iters)
	}
	if depth < 2 {
		t.Fatalf("max depth after hook = %d, want > 1: the hook ran after a shortcut", depth)
	}
}

func TestSerialUnionFindMinimumLabels(t *testing.T) {
	g := gen.URandComponents(2000, 8, 0.5, 4)
	labels := SerialUnionFind(g, 1)
	first := map[graph.V]int{}
	for v, l := range labels {
		if _, ok := first[l]; !ok {
			first[l] = v
		}
	}
	for l, v := range first {
		if graph.V(v) != l {
			t.Fatalf("label %d first appears at vertex %d — labels must be component minima", l, v)
		}
	}
}

func TestBFSLabelsAreRoots(t *testing.T) {
	g := gen.URandComponents(1000, 8, 0.25, 2)
	labels := BFSCC(g, 0)
	for v, l := range labels {
		if labels[l] != l {
			t.Fatalf("vertex %d labeled %d which is not a fixed point", v, l)
		}
	}
}

func TestLPVariantsAgree(t *testing.T) {
	g := gen.TwitterLike(2000, 6, 12)
	a := LP(g, 0)
	b := LPDataDriven(g, 0)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("LP variants disagree at %d: %d vs %d (both canonical minima)", v, a[v], b[v])
		}
	}
}

func TestAllRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, alg := range All() {
		if names[alg.Name] {
			t.Fatalf("duplicate algorithm name %q", alg.Name)
		}
		names[alg.Name] = true
		if alg.Run == nil {
			t.Fatalf("%s: nil Run", alg.Name)
		}
	}
	for _, want := range []string{"sv", "sv-edgelist", "lp", "lp-datadriven", "bfs", "dobfs", "serial-uf"} {
		if !names[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func BenchmarkSVKron(b *testing.B) {
	g := gen.Kronecker(15, 16, gen.Graph500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SV(g, 0)
	}
}

func BenchmarkDOBFSKron(b *testing.B) {
	g := gen.Kronecker(15, 16, gen.Graph500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DOBFSCC(g, 0)
	}
}
