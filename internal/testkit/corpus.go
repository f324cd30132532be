package testkit

import (
	"fmt"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// Case is one adversarial corpus graph. Build is deterministic — the
// same Case always yields the identical CSR — so a ScheduleID naming
// the case replays against the exact same input.
type Case struct {
	Name  string
	Build func() *graph.CSR
}

func fromEdges(n int, edges []graph.Edge, opt graph.BuildOptions) *graph.CSR {
	opt.NumVertices = n
	return graph.Build(edges, opt)
}

func pathEdges(lo, n int) []graph.Edge {
	var edges []graph.Edge
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(lo + v), V: graph.V(lo + v + 1)})
	}
	return edges
}

func starEdges(center graph.V, leaves []graph.V) []graph.Edge {
	edges := make([]graph.Edge, 0, len(leaves))
	for _, l := range leaves {
		edges = append(edges, graph.Edge{U: center, V: l})
	}
	return edges
}

func cliqueEdges(lo, n int) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.V(lo + u), V: graph.V(lo + v)})
		}
	}
	return edges
}

// Corpus returns the adversarial graph set the differential matrix
// sweeps: degenerate shapes (empty, singletons, self-loops,
// multi-edges), extremal topologies (long paths for diameter, stars
// for hook contention — the §V-A worst case puts the hub at the
// highest id — cliques for CAS storms, bridges joining dense regions),
// and component structures chosen to sit on either side of the
// large-component skip decision (an exact even split gives the
// frequency sampler an ambiguous mode; a bare majority gives it a
// barely-detectable one; many equal components give it nothing).
func Corpus() []Case {
	return []Case{
		{"empty", func() *graph.CSR {
			return fromEdges(0, nil, graph.BuildOptions{})
		}},
		{"singleton", func() *graph.CSR {
			return fromEdges(1, nil, graph.BuildOptions{})
		}},
		{"isolated-16", func() *graph.CSR {
			// Vertices with no edges at all: the final phase must not
			// invent links, and every label stays self.
			return fromEdges(16, nil, graph.BuildOptions{})
		}},
		{"single-edge", func() *graph.CSR {
			return fromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{})
		}},
		{"self-loops", func() *graph.CSR {
			// Loops kept in the adjacency: Link(v, v) must be a no-op.
			edges := pathEdges(0, 64)
			for v := 0; v < 128; v++ {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v)})
			}
			return fromEdges(128, edges, graph.BuildOptions{KeepSelfLoops: true})
		}},
		{"multi-edges", func() *graph.CSR {
			// Each path edge duplicated 8 times, duplicates retained:
			// re-linking converged trees must stay idempotent.
			var edges []graph.Edge
			for rep := 0; rep < 8; rep++ {
				edges = append(edges, pathEdges(0, 96)...)
			}
			return fromEdges(96, edges, graph.BuildOptions{KeepDuplicates: true})
		}},
		{"path-1024", func() *graph.CSR {
			return fromEdges(1024, pathEdges(0, 1024), graph.BuildOptions{})
		}},
		{"path-4095", func() *graph.CSR {
			// Long odd-length path: maximal diameter, spans many chunks.
			return fromEdges(4095, pathEdges(0, 4095), graph.BuildOptions{})
		}},
		{"reverse-path-2048", func() *graph.CSR {
			// Edges listed high-endpoint-first; with PreserveOrder the
			// adjacency scan meets descending ids — the hook direction
			// that maximizes climbing.
			var edges []graph.Edge
			for v := 2047; v > 0; v-- {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v - 1)})
			}
			return fromEdges(2048, edges, graph.BuildOptions{PreserveOrder: true})
		}},
		{"cycle-1000", func() *graph.CSR {
			edges := pathEdges(0, 1000)
			edges = append(edges, graph.Edge{U: 999, V: 0})
			return fromEdges(1000, edges, graph.BuildOptions{})
		}},
		{"star-low-center-1024", func() *graph.CSR {
			leaves := make([]graph.V, 1023)
			for i := range leaves {
				leaves[i] = graph.V(i + 1)
			}
			return fromEdges(1024, starEdges(0, leaves), graph.BuildOptions{})
		}},
		{"star-high-center-1024", func() *graph.CSR {
			// §V-A worst case: every hook competes for the max-id hub.
			leaves := make([]graph.V, 1023)
			for i := range leaves {
				leaves[i] = graph.V(i)
			}
			return fromEdges(1024, starEdges(1023, leaves), graph.BuildOptions{})
		}},
		{"double-star-bridged", func() *graph.CSR {
			var leavesA, leavesB []graph.V
			for i := 1; i < 512; i++ {
				leavesA = append(leavesA, graph.V(i))
				leavesB = append(leavesB, graph.V(512+i))
			}
			edges := append(starEdges(0, leavesA), starEdges(512, leavesB)...)
			edges = append(edges, graph.Edge{U: 511, V: 1023})
			return fromEdges(1024, edges, graph.BuildOptions{})
		}},
		{"clique-64", func() *graph.CSR {
			return fromEdges(64, cliqueEdges(0, 64), graph.BuildOptions{})
		}},
		{"bridged-cliques-32", func() *graph.CSR {
			edges := append(cliqueEdges(0, 32), cliqueEdges(32, 32)...)
			edges = append(edges, graph.Edge{U: 31, V: 32})
			return fromEdges(64, edges, graph.BuildOptions{})
		}},
		{"matching-1024", func() *graph.CSR {
			// Maximal count of nontrivial components.
			var edges []graph.Edge
			for v := 0; v < 1024; v += 2 {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
			}
			return fromEdges(1024, edges, graph.BuildOptions{})
		}},
		{"binary-tree-1023", func() *graph.CSR {
			var edges []graph.Edge
			for v := 1; v < 1023; v++ {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V((v - 1) / 2)})
			}
			return fromEdges(1023, edges, graph.BuildOptions{})
		}},
		{"broom-2048", func() *graph.CSR {
			// A path whose far end fans into a star: sampling sees a
			// chain, the final phase a hub.
			edges := pathEdges(0, 1024)
			for v := 1024; v < 2048; v++ {
				edges = append(edges, graph.Edge{U: 1023, V: graph.V(v)})
			}
			return fromEdges(2048, edges, graph.BuildOptions{})
		}},
		{"bipartite-32x32", func() *graph.CSR {
			var edges []graph.Edge
			for u := 0; u < 32; u++ {
				for v := 32; v < 64; v++ {
					edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
				}
			}
			return fromEdges(64, edges, graph.BuildOptions{})
		}},
		{"grid-32x32", func() *graph.CSR {
			var edges []graph.Edge
			at := func(x, y int) graph.V { return graph.V(y*32 + x) }
			for y := 0; y < 32; y++ {
				for x := 0; x < 32; x++ {
					if x+1 < 32 {
						edges = append(edges, graph.Edge{U: at(x, y), V: at(x+1, y)})
					}
					if y+1 < 32 {
						edges = append(edges, graph.Edge{U: at(x, y), V: at(x, y+1)})
					}
				}
			}
			return fromEdges(1024, edges, graph.BuildOptions{})
		}},
		{"even-split", func() *graph.CSR {
			// Two equal 1024-vertex components: the frequency sampler's
			// mode is a coin flip, so skipping must be correct for
			// either choice.
			edges := append(pathEdges(0, 1024), pathEdges(1024, 1024)...)
			return fromEdges(2048, edges, graph.BuildOptions{})
		}},
		{"bare-majority", func() *graph.CSR {
			// One component of n/2+2 vertices vs a sea of matched pairs:
			// the mode is real but barely clears the rest.
			edges := pathEdges(0, 1026)
			for v := 1026; v+1 < 2048; v += 2 {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
			}
			return fromEdges(2048, edges, graph.BuildOptions{})
		}},
		{"64-equal-components", func() *graph.CSR {
			// No majority at all: skipping whatever component the sample
			// happens to elect must not lose the other 63.
			var edges []graph.Edge
			for c := 0; c < 64; c++ {
				edges = append(edges, pathEdges(c*16, 16)...)
			}
			return fromEdges(1024, edges, graph.BuildOptions{})
		}},
		{"zoo", func() *graph.CSR {
			// Mixed shapes plus isolated tail vertices in one graph.
			edges := pathEdges(0, 512)
			edges = append(edges, cliqueEdges(512, 24)...)
			leaves := make([]graph.V, 255)
			for i := range leaves {
				leaves[i] = graph.V(536 + 1 + i)
			}
			edges = append(edges, starEdges(536, leaves)...)
			return fromEdges(1024, edges, graph.BuildOptions{})
		}},
		{"kron-10", func() *graph.CSR {
			// Raw R-MAT stream: heavy hubs, natural self-loops and
			// duplicates (dropped by the builder), isolated vertices.
			return gen.Kronecker(10, 8, gen.Graph500, 12345)
		}},
		{"urand-frac-quarter", func() *graph.CSR {
			return gen.URandComponents(2048, 8, 0.25, 777)
		}},
		{"twitter-like-1k", func() *graph.CSR {
			return gen.TwitterLike(1024, 4, 999)
		}},
	}
}

// CaseByName returns the corpus entry with the given name — the lookup
// Replay uses to regenerate a failing input from its ScheduleID.
func CaseByName(name string) (Case, error) {
	for _, c := range Corpus() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("testkit: unknown corpus graph %q", name)
}
