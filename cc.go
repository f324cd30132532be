package afforest

import (
	"fmt"
	"sort"

	"afforest/internal/baselines"
	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/validate"
)

// Algorithm selects a connected-components implementation.
type Algorithm string

// Available algorithms. AlgoAfforest is the paper's contribution; the
// rest are the baselines of its evaluation.
const (
	AlgoAfforest       Algorithm = "afforest"
	AlgoAfforestNoSkip Algorithm = "afforest-noskip"
	AlgoSV             Algorithm = "sv"
	AlgoSVEdgeList     Algorithm = "sv-edgelist"
	AlgoLP             Algorithm = "lp"
	AlgoLPDataDriven   Algorithm = "lp-datadriven"
	AlgoBFS            Algorithm = "bfs"
	AlgoDOBFS          Algorithm = "dobfs"
	AlgoSerial         Algorithm = "serial-uf"
)

// Algorithms lists every available Algorithm, in the order of the
// internal roster that runs them.
func Algorithms() []Algorithm {
	var algos []Algorithm
	for _, name := range baselines.Names() {
		algos = append(algos, Algorithm(name))
	}
	return algos
}

// Options configures ConnectedComponents. The zero value runs Afforest
// with the paper's defaults on all CPUs.
type Options struct {
	// Algorithm to run (default AlgoAfforest).
	Algorithm Algorithm
	// NeighborRounds for Afforest (0 = the paper default of 2;
	// negative disables sampling). Ignored by other algorithms.
	NeighborRounds int
	// Parallelism caps worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// EdgeGrain is the number of arcs per dynamically claimed chunk in
	// Afforest's edge-balanced final phase (0 = default). Smaller
	// grains balance extreme degree skew at the cost of scheduling
	// overhead. Ignored by the other algorithms.
	EdgeGrain int
	// Seed drives Afforest's probabilistic largest-component search.
	Seed uint64
}

// Result is a connected-components labeling with derived queries.
type Result struct {
	labels []V
	census []componentInfo // descending by size
	index  map[V]int       // label -> census index
}

type componentInfo struct {
	Label V
	Size  int
}

// ConnectedComponents computes the connected components of g.
func ConnectedComponents(g *Graph, opt Options) *Result {
	labels, err := runAlgorithm(g, opt)
	if err != nil {
		// Unknown algorithm names are programming errors, not runtime
		// conditions; fail loudly.
		panic(err)
	}
	return newResult(labels, opt.Parallelism)
}

// ConnectedComponentsChecked is ConnectedComponents returning an error
// instead of panicking on an unknown algorithm.
func ConnectedComponentsChecked(g *Graph, opt Options) (*Result, error) {
	labels, err := runAlgorithm(g, opt)
	if err != nil {
		return nil, err
	}
	return newResult(labels, opt.Parallelism), nil
}

func runAlgorithm(g *Graph, opt Options) ([]V, error) {
	algo := opt.Algorithm
	if algo == "" {
		algo = AlgoAfforest
	}
	e, err := baselines.Lookup(string(algo))
	if err != nil {
		return nil, fmt.Errorf("afforest: %w", err)
	}
	return e.Run(g.csr, core.Options{
		NeighborRounds: opt.NeighborRounds,
		Parallelism:    opt.Parallelism,
		EdgeGrain:      opt.EdgeGrain,
		Seed:           opt.Seed,
	}), nil
}

// newResult builds the component census from a labeling. Every
// algorithm in this module labels components by a vertex id inside the
// component (the minimum, per the min-label invariant), so labels are
// always valid indices < |V| and a flat count array replaces the
// map[V]int a general labeling would need. The count pass runs over
// per-worker arrays (no atomics on the hot counts), which are then
// merged by a parallel reduction over the label space.
func newResult(labels []V, parallelism int) *Result {
	n := len(labels)
	if n == 0 {
		return &Result{labels: labels, index: map[V]int{}}
	}
	workers := concurrent.Procs(parallelism)
	perWorker := make([][]int32, workers)
	concurrent.ForRange(n, parallelism, 4096, func(lo, hi, w int) {
		counts := perWorker[w]
		if counts == nil {
			// Allocated lazily so unused worker slots cost nothing.
			counts = make([]int32, n)
			perWorker[w] = counts
		}
		for _, l := range labels[lo:hi] {
			counts[l]++
		}
	})
	// Reduce across workers and collect the nonzero labels, both
	// parallel over disjoint ranges of the label space, with
	// perWorker[0] as the accumulator.
	total := perWorker[0]
	if total == nil {
		// Worker 0 (the caller) claimed no chunk — possible when the
		// pool workers drain a small domain first.
		total = make([]int32, n)
		perWorker[0] = total
	}
	parts := make([][]componentInfo, workers)
	concurrent.ForRange(n, parallelism, 4096, func(lo, hi, w int) {
		for _, counts := range perWorker[1:] {
			if counts == nil {
				continue
			}
			for i := lo; i < hi; i++ {
				total[i] += counts[i]
			}
		}
		local := parts[w]
		for i := lo; i < hi; i++ {
			if total[i] > 0 {
				local = append(local, componentInfo{Label: V(i), Size: int(total[i])})
			}
		}
		parts[w] = local
	})
	var census []componentInfo
	for _, part := range parts {
		census = append(census, part...)
	}
	// Labels are unique, so (size desc, label asc) is a total order and
	// the census is deterministic regardless of chunk scheduling.
	sort.Slice(census, func(i, j int) bool {
		if census[i].Size != census[j].Size {
			return census[i].Size > census[j].Size
		}
		return census[i].Label < census[j].Label
	})
	index := make(map[V]int, len(census))
	for i, c := range census {
		index[c.Label] = i
	}
	return &Result{labels: labels, census: census, index: index}
}

// Labels returns the per-vertex component labels. Two vertices are
// connected iff their labels are equal. The slice must not be modified.
func (r *Result) Labels() []V { return r.labels }

// Label returns v's component label.
func (r *Result) Label(v V) V { return r.labels[v] }

// SameComponent reports whether u and v are connected.
func (r *Result) SameComponent(u, v V) bool { return r.labels[u] == r.labels[v] }

// NumComponents returns the number of connected components.
func (r *Result) NumComponents() int { return len(r.census) }

// ComponentSizes returns component sizes in descending order.
func (r *Result) ComponentSizes() []int {
	sizes := make([]int, len(r.census))
	for i, c := range r.census {
		sizes[i] = c.Size
	}
	return sizes
}

// LargestComponent returns the label and size of the largest component
// (ok = false on an empty graph).
func (r *Result) LargestComponent() (label V, size int, ok bool) {
	if len(r.census) == 0 {
		return 0, 0, false
	}
	return r.census[0].Label, r.census[0].Size, true
}

// ComponentOf returns all vertices in v's component (ascending).
// This scans the labeling: O(|V|).
func (r *Result) ComponentOf(v V) []V {
	want := r.labels[v]
	var out []V
	for u, l := range r.labels {
		if l == want {
			out = append(out, V(u))
		}
	}
	return out
}

// SpanningForest returns a spanning forest of g (|V|−C edges; each
// component's edges form a spanning tree), computed with Afforest's
// merge-tracking link (Section IV-A of the paper).
func SpanningForest(g *Graph, parallelism int) []Edge {
	return core.SpanningForest(g.csr, parallelism)
}

// Validate checks a Result against g: it must label every vertex, every
// edge must join same-label vertices, and the partition must match a
// sequential BFS oracle (validate.Labeling). Meant for tests and
// harnesses; it is much slower than the computation itself.
func Validate(g *Graph, r *Result) error {
	if err := validate.Labeling(g.csr, r.labels); err != nil {
		return fmt.Errorf("afforest: %w", err)
	}
	return nil
}
