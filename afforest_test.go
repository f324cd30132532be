package afforest

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	g := GenerateURand(10_000, 16, 42)
	res := ConnectedComponents(g, Options{})
	if err := Validate(g, res); err != nil {
		t.Fatal(err)
	}
	if res.NumComponents() < 1 {
		t.Fatal("no components")
	}
	label, size, ok := res.LargestComponent()
	if !ok || size < 9000 {
		t.Fatalf("largest component = %d (label %d)", size, label)
	}
	if got := res.ComponentSizes(); got[0] != size {
		t.Fatalf("ComponentSizes[0] = %d, want %d", got[0], size)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	g := GenerateKronecker(11, 8, 7)
	ref := ConnectedComponents(g, Options{Algorithm: AlgoSerial})
	for _, algo := range Algorithms() {
		res, err := ConnectedComponentsChecked(g, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.NumComponents() != ref.NumComponents() {
			t.Fatalf("%s: %d components, serial got %d", algo, res.NumComponents(), ref.NumComponents())
		}
		if err := Validate(g, res); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestAlgorithmsFollowRoster pins the public names to the internal
// roster that runs them: Algorithms() lists the roster in order, and
// that list is exactly the Algo* constants.
func TestAlgorithmsFollowRoster(t *testing.T) {
	want := []Algorithm{
		AlgoAfforest, AlgoAfforestNoSkip, AlgoSV, AlgoSVEdgeList,
		AlgoLP, AlgoLPDataDriven, AlgoBFS, AlgoDOBFS, AlgoSerial,
	}
	if got := Algorithms(); !slices.Equal(got, want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g := GenerateURand(100, 4, 1)
	if _, err := ConnectedComponentsChecked(g, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ConnectedComponents must panic on unknown algorithm")
		}
	}()
	ConnectedComponents(g, Options{Algorithm: "nope"})
}

func TestResultQueries(t *testing.T) {
	g := BuildGraph([]Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}}, BuildOptions{NumVertices: 6})
	res := ConnectedComponents(g, Options{})
	if res.NumComponents() != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("components = %d", res.NumComponents())
	}
	if !res.SameComponent(2, 4) || res.SameComponent(0, 2) || res.SameComponent(5, 0) {
		t.Fatal("SameComponent wrong")
	}
	if res.Label(0) != res.Label(1) {
		t.Fatal("Label mismatch within component")
	}
	comp := res.ComponentOf(3)
	if len(comp) != 3 || comp[0] != 2 || comp[1] != 3 || comp[2] != 4 {
		t.Fatalf("ComponentOf(3) = %v", comp)
	}
	sizes := res.ComponentSizes()
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestResultEmptyGraph(t *testing.T) {
	g := BuildGraph(nil, BuildOptions{})
	res := ConnectedComponents(g, Options{})
	if res.NumComponents() != 0 {
		t.Fatalf("components = %d", res.NumComponents())
	}
	if _, _, ok := res.LargestComponent(); ok {
		t.Fatal("LargestComponent on empty graph must report !ok")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := BuildGraph([]Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(1) != 2 || !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("accessors wrong")
	}
	if nb := g.Neighbors(1); len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
	if edges := g.Edges(); len(edges) != 2 {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestGraphStatsString(t *testing.T) {
	g := GenerateRoad(1024, 3)
	s := g.Stats()
	if s.NumVertices == 0 || s.ApproxDiam < 10 {
		t.Fatalf("stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPublicIO(t *testing.T) {
	dir := t.TempDir()
	g := GenerateTwitterLike(500, 4, 9)
	path := filepath.Join(dir, "g.csr")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip mismatch")
	}

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip mismatch")
	}
}

func TestPublicSpanningForest(t *testing.T) {
	g := GenerateWebLike(2000, 10, 5)
	sf := SpanningForest(g, 0)
	res := ConnectedComponents(g, Options{})
	want := g.NumVertices() - res.NumComponents()
	if len(sf) != want {
		t.Fatalf("|SF| = %d, want %d", len(sf), want)
	}
	// The forest must preserve the partition.
	fg := BuildGraph(sf, BuildOptions{NumVertices: g.NumVertices()})
	fres := ConnectedComponents(fg, Options{})
	if fres.NumComponents() != res.NumComponents() {
		t.Fatalf("forest has %d components, graph has %d", fres.NumComponents(), res.NumComponents())
	}
}

func TestAllGeneratorsProduceValidatableGraphs(t *testing.T) {
	graphs := map[string]*Graph{
		"urand":   GenerateURand(2000, 8, 1),
		"urand-f": GenerateURandComponents(2000, 8, 0.5, 1),
		"kron":    GenerateKronecker(10, 8, 1),
		"road":    GenerateRoad(2000, 1),
		"twitter": GenerateTwitterLike(2000, 6, 1),
		"web":     GenerateWebLike(2000, 10, 1),
		"regular": GenerateRegular(2000, 4, 1),
	}
	for name, g := range graphs {
		res := ConnectedComponents(g, Options{Seed: 3})
		if err := Validate(g, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestValidateRejectsOtherGraphsResult: a Result from a graph with
// another vertex count is an error, whether it is shorter (which used to
// index past its labels and panic) or longer (which used to pass).
func TestValidateRejectsOtherGraphsResult(t *testing.T) {
	four, ten := GenerateRegular(4, 1, 1), GenerateRegular(10, 1, 1)
	for _, tc := range []struct {
		name string
		g    *Graph
		res  *Result
	}{
		{"4-vertex result, 10-vertex graph", ten, ConnectedComponents(four, Options{})},
		{"10-vertex result, 4-vertex graph", four, ConnectedComponents(ten, Options{})},
	} {
		err := Validate(tc.g, tc.res)
		if err == nil || !strings.HasPrefix(err.Error(), "afforest: ") || !strings.Contains(err.Error(), "label-length") {
			t.Fatalf("%s: Validate = %v, want an afforest: label-length error", tc.name, err)
		}
	}
}

func TestPublicIncremental(t *testing.T) {
	inc := NewIncremental(10)
	if inc.NumVertices() != 10 || inc.NumComponents() != 10 {
		t.Fatalf("fresh incremental: %d/%d", inc.NumVertices(), inc.NumComponents())
	}
	if !inc.AddEdge(0, 9) || inc.AddEdge(9, 0) {
		t.Fatal("merge accounting wrong")
	}
	if !inc.Connected(0, 9) || inc.Connected(1, 2) {
		t.Fatal("connectivity wrong")
	}
	labels := inc.Labels()
	if labels[9] != 0 {
		t.Fatalf("labels[9] = %d, want 0", labels[9])
	}
}

func TestPublicMeasureConvergence(t *testing.T) {
	g := GenerateWebLike(3000, 10, 4)
	for _, s := range Strategies() {
		pts, err := MeasureConvergence(g, s, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(pts) < 2 {
			t.Fatalf("%s: %d points", s, len(pts))
		}
		last := pts[len(pts)-1]
		if last.Linkage < 0.999 || last.Coverage < 0.999 {
			t.Fatalf("%s: did not converge: %+v", s, last)
		}
	}
	if _, err := MeasureConvergence(g, "bogus", 8, 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
