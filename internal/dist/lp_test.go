package dist

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

func assertMatchesOracle(t *testing.T, g *graph.CSR, labels []graph.V) {
	t.Helper()
	oracle, _ := graph.SequentialCC(g)
	fwd := make(map[int32]graph.V)
	rev := make(map[graph.V]int32)
	for v := range oracle {
		o, l := oracle[v], labels[v]
		if want, ok := fwd[o]; ok && want != l {
			t.Fatalf("vertex %d labeled %d, component already saw %d", v, l, want)
		}
		fwd[o] = l
		if want, ok := rev[l]; ok && want != o {
			t.Fatalf("label %d spans two oracle components", l)
		}
		rev[l] = o
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Nodes: 4, Rounds: 3, CutEdges: 10, Messages: 20, BytesSent: 160}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestDistLPMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 44)
		for _, nodes := range []int{1, 3, 8} {
			labels, st := LP(g, nodes)
			assertMatchesOracle(t, g, labels)
			if st.Rounds < 1 {
				t.Fatalf("%s: %d rounds", sg.Name, st.Rounds)
			}
		}
	}
}

func TestDistLPEdgeless(t *testing.T) {
	g := graph.Build(nil, graph.BuildOptions{NumVertices: 64})
	labels, st := LP(g, 4)
	for v, l := range labels {
		if l != graph.V(v) {
			t.Fatalf("edgeless vertex %d labeled %d", v, l)
		}
	}
	if st.Messages != 0 {
		t.Fatalf("edgeless graph sent %d messages", st.Messages)
	}
}
