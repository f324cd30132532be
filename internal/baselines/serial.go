package baselines

import (
	"fmt"

	"afforest/internal/core"
	"afforest/internal/graph"
)

// SerialUnionFind is the classic sequential disjoint-set algorithm with
// path halving, canonicalized to minimum-id labels. It serves as the
// single-threaded reference point for speedup calculations and as an
// independent correctness oracle (alongside graph.SequentialCC).
func SerialUnionFind(g *graph.CSR, _ int) []graph.V {
	n := g.NumVertices()
	parent := make([]graph.V, n)
	for v := range parent {
		parent[v] = graph.V(v)
	}
	find := func(v graph.V) graph.V {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	for u := graph.V(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v { // each undirected edge once
				ru, rv := find(u), find(v)
				if ru == rv {
					continue
				}
				if ru < rv { // union under the smaller id keeps labels minimal
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	labels := make([]graph.V, n)
	for v := range labels {
		labels[v] = find(graph.V(v))
	}
	return labels
}

// Algorithm is a named connected-components implementation with a
// common signature, the unit the benchmark harness sweeps over.
type Algorithm struct {
	Name string
	// Run computes per-vertex component labels using at most
	// `parallelism` workers (0 = GOMAXPROCS).
	Run func(g *graph.CSR, parallelism int) []graph.V
}

// All returns every baseline algorithm in this package. Roster puts
// Afforest in front of them.
func All() []Algorithm {
	return []Algorithm{
		{Name: "sv", Run: SV},
		{Name: "sv-edgelist", Run: SVEdgeList},
		{Name: "lp", Run: LP},
		{Name: "lp-datadriven", Run: LPDataDriven},
		{Name: "bfs", Run: BFSCC},
		{Name: "dobfs", Run: DOBFSCC},
		{Name: "serial-uf", Run: SerialUnionFind},
	}
}

// Entry is one algorithm of the roster: the one list of algorithms the
// facade, the benchmark figures, the test kit and the CLIs read. Run
// computes per-vertex component labels; a baseline reads only
// opt.Parallelism. Audited, non-nil for the Afforest variants, is the
// same run with a hook at every phase boundary (core.RunAudited).
type Entry struct {
	Name    string
	Run     func(g *graph.CSR, opt core.Options) []graph.V
	Audited func(g *graph.CSR, opt core.Options, audit func(core.Parent, string)) []graph.V
}

// AfforestEntry is core.Run and core.RunAudited under name, with mod
// applied to the caller's options first.
func AfforestEntry(name string, mod func(*core.Options)) Entry {
	return Entry{
		Name: name,
		Run: func(g *graph.CSR, opt core.Options) []graph.V {
			mod(&opt)
			return core.Run(g, opt).Labels()
		},
		Audited: func(g *graph.CSR, opt core.Options, audit func(core.Parent, string)) []graph.V {
			mod(&opt)
			return core.RunAudited(g, opt, audit).Labels()
		},
	}
}

// Roster lists every algorithm: Afforest, its no-skip ablation
// (Figs 7b and 8b), then All's baselines. afforest.Algorithms() reports
// this order.
func Roster() []Entry {
	r := []Entry{
		AfforestEntry("afforest", func(o *core.Options) { o.SkipLargest = true }),
		AfforestEntry("afforest-noskip", func(o *core.Options) { o.SkipLargest = false }),
	}
	for _, a := range All() {
		r = append(r, Entry{Name: a.Name, Run: func(g *graph.CSR, opt core.Options) []graph.V {
			return a.Run(g, opt.Parallelism)
		}})
	}
	return r
}

// Names lists the roster's names in order.
func Names() []string {
	var names []string
	for _, e := range Roster() {
		names = append(names, e.Name)
	}
	return names
}

// Lookup returns the roster entry called name.
func Lookup(name string) (Entry, error) {
	for _, e := range Roster() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown algorithm %q (have %v)", name, Names())
}
