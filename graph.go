package afforest

import (
	"io"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// V is a vertex identifier (32-bit, matching the internal CSR layout).
type V = graph.V

// Edge is an undirected edge between two vertices.
type Edge = graph.Edge

// Graph is an immutable undirected graph in CSR form. Construct one
// with BuildGraph, LoadGraph, or a Generate* function. Graphs are safe
// for concurrent readers.
type Graph struct {
	csr *graph.CSR
}

// BuildOptions tunes graph construction.
type BuildOptions struct {
	// NumVertices fixes |V| (0 = infer from max endpoint). Edges with
	// an endpoint >= NumVertices are dropped silently.
	NumVertices int
	// KeepDuplicates retains parallel edges (default: deduplicate).
	KeepDuplicates bool
	// Parallelism caps builder workers (0 = GOMAXPROCS).
	Parallelism int
}

// BuildGraph constructs an undirected graph from an edge list,
// symmetrizing, deduplicating, and dropping self-loops.
func BuildGraph(edges []Edge, opt BuildOptions) *Graph {
	return &Graph{csr: graph.Build(edges, graph.BuildOptions{
		NumVertices:    opt.NumVertices,
		KeepDuplicates: opt.KeepDuplicates,
		Parallelism:    opt.Parallelism,
	})}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.csr.NumVertices() }

// NumEdges returns |E| (undirected edge count).
func (g *Graph) NumEdges() int64 { return g.csr.NumEdges() }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v V) int { return g.csr.Degree(v) }

// Neighbors returns v's adjacency list, sorted ascending. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v V) []V { return g.csr.Neighbors(v) }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v V) bool { return g.csr.HasEdge(u, v) }

// Edges returns every undirected edge exactly once.
func (g *Graph) Edges() []Edge { return g.csr.Edges() }

// Stats computes summary statistics (sizes, degrees, exact component
// census via BFS, approximate diameter). It is substantially more
// expensive than ConnectedComponents; use it for dataset reporting,
// not hot paths.
func (g *Graph) Stats() GraphStats {
	s := graph.ComputeStats(g.csr, 0)
	return GraphStats{
		NumVertices:  s.NumVertices,
		NumEdges:     s.NumEdges,
		MinDegree:    s.MinDegree,
		MaxDegree:    s.MaxDegree,
		AvgDegree:    s.AvgDegree,
		Components:   s.Components,
		MaxComponent: s.MaxComponent,
		ApproxDiam:   s.ApproxDiam,
	}
}

// GraphStats summarizes a graph (Table III-style).
type GraphStats struct {
	NumVertices  int
	NumEdges     int64
	MinDegree    int
	MaxDegree    int
	AvgDegree    float64
	Components   int
	MaxComponent int
	ApproxDiam   int
}

// String renders the stats on one line.
func (s GraphStats) String() string {
	return graph.Stats{
		NumVertices: s.NumVertices, NumEdges: s.NumEdges,
		MinDegree: s.MinDegree, MaxDegree: s.MaxDegree, AvgDegree: s.AvgDegree,
		Components: s.Components, MaxComponent: s.MaxComponent,
		MaxCompFrac: safeFrac(s.MaxComponent, s.NumVertices), ApproxDiam: s.ApproxDiam,
	}.String()
}

func safeFrac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// LoadGraph reads a graph from a file: binary ".csr" or text edge list
// by extension.
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// SaveGraph writes a graph to a file, format chosen by extension as in
// LoadGraph.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g.csr) }

// ReadEdgeList parses a text edge list ("u v" per line, '#'/'%'
// comments).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r, graph.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// WriteEdgeList writes the graph as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g.csr) }

// GenerateURand returns a uniformly random graph with n vertices and
// average degree deg (the GAP benchmark's urand family).
func GenerateURand(n, deg int, seed uint64) *Graph {
	return &Graph{csr: gen.URandDegree(n, deg, seed)}
}

// GenerateURandComponents returns a uniformly random graph whose
// expected component structure is ⌊1/f⌋ components of ⌊n·f⌋ vertices
// (the Fig 8c family). f must be in (0, 1].
func GenerateURandComponents(n, deg int, f float64, seed uint64) *Graph {
	return &Graph{csr: gen.URandComponents(n, deg, f, seed)}
}

// GenerateKronecker returns a Graph500-parameter Kronecker (R-MAT)
// graph with 2^scale vertices and ~edgeFactor·2^scale edges.
func GenerateKronecker(scale, edgeFactor int, seed uint64) *Graph {
	return &Graph{csr: gen.Kronecker(scale, edgeFactor, gen.Graph500, seed)}
}

// GenerateRoad returns a road-network-like graph: a sparse 2D lattice
// with ~n vertices, near-constant degree and Ω(√n) diameter.
func GenerateRoad(n int, seed uint64) *Graph {
	return &Graph{csr: gen.Road(n, seed)}
}

// GenerateTwitterLike returns a preferential-attachment social graph:
// heavy-tailed degrees, one giant component, low diameter. Each vertex
// beyond the seed clique attaches `attach` edges.
func GenerateTwitterLike(n, attach int, seed uint64) *Graph {
	return &Graph{csr: gen.TwitterLike(n, attach, seed)}
}

// GenerateWebLike returns a locality-clustered power-law graph
// resembling a web crawl in CSR id space.
func GenerateWebLike(n, avgDeg int, seed uint64) *Graph {
	return &Graph{csr: gen.WebLike(n, avgDeg, seed)}
}

// GenerateRegular returns a random (approximately) d-regular graph.
func GenerateRegular(n, d int, seed uint64) *Graph {
	return &Graph{csr: gen.Regular(n, d, seed)}
}
