package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text edge-list format: one "u v" pair per line, '#' or '%' comment
// lines ignored, whitespace-separated. Binary format: the ".csr" layout
// below, a direct dump of the CSR arrays (little-endian) so large graphs
// round-trip without re-running the builder.

const csrMagic = "AFCSR\x01"

// WriteEdgeList writes g as a text edge list, one undirected edge per
// line (u <= v order), preceded by a comment header. The format cannot
// represent isolated vertices whose id exceeds every edge endpoint; use
// the binary format (WriteBinary) when the exact vertex count matters.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# undirected graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for u := V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u <= v {
				fmt.Fprintf(bw, "%d %d\n", u, v)
			}
		}
	}
	return bw.Flush()
}

// impliedVertexFloor is the vertex count any text input may imply,
// however short it is.
const impliedVertexFloor = 1 << 20

// impliedVertexLimit bounds the vertex count a text input of the given
// size may imply: one vertex per input byte, and never less than
// impliedVertexFloor. Every text line that names a vertex spends bytes
// on it, so a real edge list or MatrixMarket file stays far below the
// bound unless most of its id space is unused — while a one-line input
// such as "999999999 3" can no longer make Build allocate a 10⁹-vertex
// CSR. Callers that know the true |V| pass
// BuildOptions.NumVertices, which the bound does not apply to.
func impliedVertexLimit(inputBytes int64) int64 {
	return max(inputBytes, impliedVertexFloor)
}

// countingReader counts the bytes its reader delivers; once a scanner
// over it reaches EOF, n is the input size.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadEdgeList parses a text edge list and builds an undirected CSR.
// Lines starting with '#' or '%' are comments. Endpoints must be
// non-negative integers that fit in 32 bits. Unless opt.NumVertices is
// set, |V| is the largest endpoint + 1, which must stay within
// impliedVertexLimit of the input size.
func ReadEdgeList(r io.Reader, opt BuildOptions) (*CSR, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", line, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", line, fields[1], err)
		}
		edges = append(edges, Edge{U: V(u), V: V(v)})
		maxID = max(maxID, int64(u), int64(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if opt.NumVertices == 0 && maxID+1 > impliedVertexLimit(cr.n) {
		return nil, fmt.Errorf("graph: edge list names vertex %d but holds only %d bytes (limit %d vertices)",
			maxID, cr.n, impliedVertexLimit(cr.n))
	}
	return Build(edges, opt), nil
}

// WriteBinary serializes g in the binary .csr format:
//
//	magic [6]byte | numVertices uint64 | numArcs uint64 |
//	offsets [numVertices+1]int64 | targets [numArcs]uint32
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csrMagic); err != nil {
		return err
	}
	hdr := [2]uint64{uint64(g.NumVertices()), uint64(g.NumArcs())}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.targets); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary, validating the
// structural invariants before returning.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(csrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != csrMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var hdr [2]uint64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n, m := hdr[0], hdr[1]
	const maxReasonable = 1 << 40
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes |V|=%d arcs=%d", n, m)
	}
	// The chunked readers size allocations by what the stream actually
	// delivers, so a truncated file whose header claims huge (but
	// sub-cap) counts fails with a clean IO error instead of an
	// out-of-memory crash on the upfront make.
	offsets, err := readInt64s(br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	targets, err := readUint32s(br, m)
	if err != nil {
		return nil, fmt.Errorf("graph: reading targets: %w", err)
	}
	if offsets[0] != 0 || offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt offsets (first=%d last=%d arcs=%d)", offsets[0], offsets[n], m)
	}
	for i := uint64(0); i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("graph: offsets decrease at %d", i)
		}
	}
	for _, t := range targets {
		if uint64(t) >= n {
			return nil, fmt.Errorf("graph: target %d out of range (|V|=%d)", t, n)
		}
	}
	return &CSR{offsets: offsets, targets: targets}, nil
}

// LoadFile reads a graph from path, choosing the format by extension:
// ".csr" binary, ".csrz" compressed binary, ".mtx" MatrixMarket,
// anything else text edge list.
func LoadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".csr"):
		return ReadBinary(f)
	case strings.HasSuffix(path, ".csrz"):
		return ReadCompressed(f)
	case strings.HasSuffix(path, ".mtx"):
		return ReadMatrixMarket(f, BuildOptions{})
	default:
		return ReadEdgeList(f, BuildOptions{})
	}
}

// SaveFile writes a graph to path, choosing the format by extension the
// same way LoadFile does.
func SaveFile(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch {
	case strings.HasSuffix(path, ".csr"):
		werr = WriteBinary(f, g)
	case strings.HasSuffix(path, ".csrz"):
		werr = WriteCompressed(f, g)
	case strings.HasSuffix(path, ".mtx"):
		werr = WriteMatrixMarket(f, g)
	default:
		werr = WriteEdgeList(f, g)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
