package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := twoTriangles()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, BuildOptions{NumVertices: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# comment\n% matrix-market style comment\n\n0 1\n  1   2  \n"
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListExtraFieldsIgnored(t *testing.T) {
	// Weighted edge lists carry a third column; we ignore it.
	g, err := ReadEdgeList(strings.NewReader("0 1 3.5\n1 2 0.1\n"), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",             // too few fields
		"a b\n",           // non-numeric source
		"0 b\n",           // non-numeric target
		"-1 2\n",          // negative id
		"99999999999 0\n", // > 32 bits
		"999999999 3\n",   // 10⁹ vertices implied by 12 bytes
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), BuildOptions{}); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestReadEdgeListImpliedVertexLimit pins the bound on the |V| a text
// input may imply: a short input reaches exactly the floor, one more
// vertex needs a larger input (or a caller-supplied NumVertices).
func TestReadEdgeListImpliedVertexLimit(t *testing.T) {
	atFloor := fmt.Sprintf("%d 0\n", impliedVertexFloor-1)
	g, err := ReadEdgeList(strings.NewReader(atFloor), BuildOptions{})
	if err != nil {
		t.Fatalf("input %q: %v", atFloor, err)
	}
	if g.NumVertices() != impliedVertexFloor {
		t.Fatalf("|V| = %d, want %d", g.NumVertices(), impliedVertexFloor)
	}
	past := fmt.Sprintf("%d 0\n", impliedVertexFloor)
	if _, err := ReadEdgeList(strings.NewReader(past), BuildOptions{}); err == nil {
		t.Fatalf("input %q: want error past the floor", past)
	}
	padded := past + strings.Repeat("# padding\n", impliedVertexFloor/10+1)
	if _, err := ReadEdgeList(strings.NewReader(padded), BuildOptions{}); err != nil {
		t.Fatalf("input of %d bytes naming vertex %d: %v", len(padded), impliedVertexFloor, err)
	}
	g, err = ReadEdgeList(strings.NewReader("999999999 3\n"), BuildOptions{NumVertices: 4})
	if err != nil || g.NumVertices() != 4 {
		t.Fatalf("explicit NumVertices must bypass the bound: %v, %v", g, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := make([]Edge, 3000)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(500)), V(rng.Intn(500))}
	}
	g := Build(edges, BuildOptions{NumVertices: 500})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := path5()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}

	// Truncated payload.
	if _, err := ReadBinary(bytes.NewReader(good[:len(good)-4])); err == nil {
		t.Error("truncated file accepted")
	}

	// Out-of-range target.
	bad = append([]byte{}, good...)
	// Last 4 bytes are the final target; make it huge.
	for i := len(bad) - 4; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("out-of-range target accepted")
	}

	// Empty input.
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := twoTriangles()

	binPath := filepath.Join(dir, "g.csr")
	if err := SaveFile(binPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)

	// Text edge lists cannot carry trailing isolated vertices (vertex 6
	// of twoTriangles), so round-trip a graph without them.
	gp := path5()
	txtPath := filepath.Join(dir, "g.el")
	if err := SaveFile(txtPath, gp); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, gp, g3)

	if _, err := LoadFile(filepath.Join(dir, "missing.csr")); err == nil {
		t.Error("missing file accepted")
	}
}

func assertSameGraph(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("size mismatch: %v vs %v", a, b)
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(V(v)), b.Neighbors(V(v))
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at vertex %d index %d", v, i)
			}
		}
	}
}
