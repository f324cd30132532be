package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	// The self-loop graph pins the header's entry count: a kept
	// self-loop is a lower-triangle entry but not a whole NumEdges edge,
	// and the reader rejects a count that disagrees with the entries.
	loops := BuildOptions{KeepSelfLoops: true}
	for _, c := range []struct {
		g   *CSR
		opt BuildOptions
	}{
		{twoTriangles(), BuildOptions{}},
		{Build([]Edge{{0, 0}, {0, 1}, {2, 2}, {1, 2}}, loops), loops},
	} {
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, c.g); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(buf.String(), "%%MatrixMarket matrix coordinate pattern symmetric") {
			t.Fatalf("banner: %q", buf.String()[:60])
		}
		c.opt.NumVertices = c.g.NumVertices()
		g2, err := ReadMatrixMarket(&buf, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGraph(t, c.g, g2)
	}
}

func TestMatrixMarketParsesWeightsAndComments(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 2
1 2 0.5
2 3 1.5
`
	g, err := ReadMatrixMarket(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %v", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges wrong (must be converted to 0-based)")
	}
}

func TestMatrixMarketRectangular(t *testing.T) {
	// Rectangular incidence-style inputs use max(rows, cols) vertices.
	in := "%%MatrixMarket matrix coordinate pattern general\n2 5 1\n1 5\n"
	g, err := ReadMatrixMarket(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("|V| = %d, want 5", g.NumVertices())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",                 // empty
		"garbage\n1 1 0\n", // bad banner
		"%%MatrixMarket matrix array real general\n1 1 0\n",                   // not coordinate
		"%%MatrixMarket matrix coordinate pattern general\nx y z\n",           // bad size
		"%%MatrixMarket matrix coordinate pattern general\n0 3 1\n1 1\n",      // zero dim
		"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 2\n",      // 0-based index
		"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1\n",        // short entry
		"%%MatrixMarket matrix coordinate pattern general\n1 1 4000000000\n",  // nnz beyond the stream
		"%%MatrixMarket matrix coordinate pattern general\n999999999 1 0\n",   // |V| beyond the stream
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n",      // index outside the matrix
		"%%MatrixMarket matrix coordinate pattern general\n1 1 -1\n",          // negative nnz
		"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n2 1\n",      // fewer entries than nnz
		"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n2 1\n3 2\n", // more entries than nnz
	}
	for _, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in), BuildOptions{}); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}
