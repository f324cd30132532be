package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz`
// explores further. The parsers must never panic and every accepted
// graph must satisfy the CSR structural invariants.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("999999 3\nx y\n")
	f.Add("0 1 weight\n")
	f.Add("999999999 3\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), BuildOptions{})
		if err != nil {
			return
		}
		checkCSRInvariants(t, g)
	})
}

func FuzzReadBinary(f *testing.F) {
	var good bytes.Buffer
	if err := WriteBinary(&good, Build([]Edge{{0, 1}, {1, 2}}, BuildOptions{})); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("AFCSR\x01garbage"))
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		checkCSRInvariants(t, g)
	})
}

func FuzzReadCompressed(f *testing.F) {
	var good bytes.Buffer
	if err := WriteCompressed(&good, Build([]Edge{{0, 1}, {1, 2}}, BuildOptions{})); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadCompressed(bytes.NewReader(input))
		if err != nil {
			return
		}
		checkCSRInvariants(t, g)
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% c\n2 2 1\n1 2 0.5\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 4000000000\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n999999999 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 -1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadMatrixMarket(strings.NewReader(input), BuildOptions{})
		if err != nil {
			return
		}
		checkCSRInvariants(t, g)
	})
}

// FuzzBuildCCDifferential builds a graph from arbitrary bytes and
// cross-checks the two independent component oracles on it.
func FuzzBuildCCDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{7, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{V(raw[i]), V(raw[i+1])})
		}
		g := Build(edges, BuildOptions{})
		checkCSRInvariants(t, g)
		labels, sizes := SequentialCC(g)
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != g.NumVertices() {
			t.Fatalf("component sizes sum %d != |V| %d", total, g.NumVertices())
		}
		for u := V(0); int(u) < g.NumVertices(); u++ {
			for _, v := range g.Neighbors(u) {
				if labels[u] != labels[v] {
					t.Fatalf("edge %d-%d crosses labels", u, v)
				}
			}
		}
	})
}

func checkCSRInvariants(t *testing.T, g *CSR) {
	t.Helper()
	n := g.NumVertices()
	off := g.Offsets()
	if len(off) != 0 && (off[0] != 0 || off[len(off)-1] != g.NumArcs()) {
		t.Fatalf("offset endpoints corrupt")
	}
	for i := 0; i+1 < len(off); i++ {
		if off[i] > off[i+1] {
			t.Fatalf("offsets decrease at %d", i)
		}
	}
	for _, tgt := range g.Targets() {
		if int(tgt) >= n {
			t.Fatalf("target %d out of range %d", tgt, n)
		}
	}
}
