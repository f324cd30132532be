package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// Options configures an Afforest run (Fig 5).
type Options struct {
	// NeighborRounds is the number of vertex-neighbor sampling rounds
	// before the skip phase. The paper's analysis (Section V-B) sets
	// the default to 2. Zero means the default; negative disables
	// sampling (the final phase then processes every edge).
	NeighborRounds int

	// SkipLargest enables Theorem 3's large-component skipping. When
	// false the final phase processes every remaining edge ("Afforest
	// w/o component skipping" in Figs 7b and 8b).
	SkipLargest bool

	// SampleSize is the number of random π entries inspected to find
	// the most frequent intermediate component (Fig 5 line 10). Zero
	// means the default 1024.
	SampleSize int

	// Parallelism bounds the number of worker goroutines; 0 means
	// GOMAXPROCS.
	Parallelism int

	// EdgeGrain is the number of arcs per dynamically claimed chunk in
	// the edge-balanced final phase.
	// Zero means concurrent.DefaultEdgeGrain. Chunking by arcs rather
	// than vertices keeps per-chunk work uniform on power-law degree
	// distributions, where a single hub would otherwise serialize its
	// whole vertex chunk.
	EdgeGrain int

	// Seed drives the probabilistic most-frequent-element search.
	Seed uint64

	// Observer, when non-nil, is the tracer that opens the run's phase
	// tree (spans per neighbor round, compress pass, sample, and final
	// pass) with per-phase work counters and hands each closed span to
	// its sinks. nil keeps the uninstrumented hot path: Run dispatches on
	// the nil check once, not per edge.
	Observer *obs.Tracer
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: two neighbor rounds with component skipping enabled.
func DefaultOptions() Options {
	return Options{NeighborRounds: 2, SkipLargest: true}
}

func (o Options) rounds() int {
	switch {
	case o.NeighborRounds == 0:
		return 2
	case o.NeighborRounds < 0:
		return 0
	default:
		return o.NeighborRounds
	}
}

func (o Options) sampleSize() int {
	if o.SampleSize <= 0 {
		return 1024
	}
	return o.SampleSize
}

// Run executes the complete Afforest algorithm of Fig 5 on g and
// returns the flattened π: a labeling where ℓ(v) = ℓ(u) iff u and v are
// connected, with each label being the minimum vertex id of its
// component (a consequence of Invariant 1). A nil opt.Observer runs the
// uncounted driver; otherwise the counted one records the phase tree on
// the observer.
func Run(g *graph.CSR, opt Options) Parent {
	p := NewParent(g.NumVertices())
	if opt.Observer == nil {
		run[uncounted](g, opt, p, nil)
	} else {
		run[counted](g, opt, p, nil)
	}
	return p
}

// tally picks what run counts, at compile time. Each instantiation
// fixes len, so the compiler folds every len(t) == 1 test: the
// uncounted chunk loops carry no counter code (`make plainloop` checks
// the generated code), and the counted ones keep per-worker LinkStats.
type tally interface{ ~[0]struct{} | ~[1]struct{} }

type (
	uncounted = [0]struct{}
	counted   = [1]struct{}
)

// run is Fig 5 on p, the one copy of the driver. The counted
// instantiation opens a span per phase on opt.Observer (a throwaway
// tracer when nil) with the phase's link accounting. after, when
// non-nil, runs on the submitting goroutine each time a counted span
// closes, with the span's name and stats: no parallel work is in
// flight then, and a link span's compress has not run yet.
func run[T tally](g *graph.CSR, opt Options, p Parent, after func(phase string, st obs.PhaseStats)) {
	n := g.NumVertices()
	if n == 0 {
		return
	}
	var t T
	var sp spans
	if len(t) == 1 {
		sp = spans{tr: opt.Observer, after: after}
		if sp.tr == nil {
			sp.tr = obs.NewTracer()
		}
	}
	rounds := opt.rounds()
	slots := len(t) * workerCount(opt.Parallelism) // per-worker LinkStats, none when uncounted
	offsets, targets := g.Adjacency(0, n)
	root := sp.begin(obs.PhaseRun)

	// Phase 1: neighbor-sampling rounds (Fig 5 lines 2–9). Round r
	// links each vertex to its r-th neighbor — read straight off the
	// raw CSR slices as targets[offsets[u]+r] — followed by a compress
	// pass so the next round's links walk shallow trees.
	for r := 0; r < rounds; r++ {
		span := sp.begin(obs.PhaseNeighborRound)
		per := make([]LinkStats, slots)
		rr := int64(r)
		concurrent.ForRange(n, opt.Parallelism, 512, func(lo, hi, w int) {
			var t T
			for u := lo; u < hi; u++ {
				if k := offsets[u] + rr; k < offsets[u+1] {
					_, loser, iters, casFails := link(p, graph.V(u), targets[k])
					if len(t) == 1 {
						per[w].addLink(loser, iters, casFails)
					}
				}
			}
		})
		sp.end(span, obs.PhaseNeighborRound, sumStats(per))
		span = sp.begin(obs.PhaseCompress)
		CompressAll(p, opt.Parallelism)
		sp.end(span, obs.PhaseCompress, obs.PhaseStats{})
	}

	// Phase 2: probabilistic search for the largest intermediate
	// component (Fig 5 line 10).
	var c graph.V
	skip := opt.SkipLargest
	if skip {
		span := sp.begin(obs.PhaseSample)
		var ratio float64
		c, ratio = SampleFrequentElementRatio(p, opt.sampleSize(), opt.Seed)
		sp.end(span, obs.PhaseSample, obs.PhaseStats{SkipRatio: ratio})
	}

	// Phase 3: process the remaining edges — neighbors beyond the
	// sampled rounds — skipping vertices already inside c (Fig 5 lines
	// 11–15; Theorem 3 guarantees the cross edges are seen from their
	// other endpoint). Chunks are balanced by arc count, so hub
	// vertices split across chunks; each vertex's arc range is clipped
	// to the chunk and offset past the already-sampled rounds. With no
	// rounds and no skipping this is Section III's link over every arc.
	span := sp.begin(obs.PhaseFinal)
	per := make([]LinkStats, slots)
	skipArcs := int64(rounds)
	concurrent.ForEdgeRange(offsets, opt.Parallelism, opt.EdgeGrain, func(vlo, vhi int, alo, ahi int64, w int) {
		var t T
		for u := vlo; u < vhi; u++ {
			lo, hi := offsets[u]+skipArcs, offsets[u+1]
			if lo < alo {
				lo = alo
			}
			if hi > ahi {
				hi = ahi
			}
			if lo >= hi {
				continue
			}
			uu := graph.V(u)
			if skip {
				inC := p.Get(uu) == c
				if len(t) == 1 {
					per[w].addCheck(inC)
				}
				if inC {
					continue
				}
			}
			for _, v := range targets[lo:hi] {
				_, loser, iters, casFails := link(p, uu, v)
				if len(t) == 1 {
					per[w].addLink(loser, iters, casFails)
				}
			}
		}
	})
	sp.end(span, obs.PhaseFinal, sumStats(per))

	// Phase 4: final compress (Fig 5 lines 16–18) flattens every tree
	// to depth one; π is now the component labeling.
	span = sp.begin(obs.PhaseFinalCompress)
	CompressAll(p, opt.Parallelism)
	sp.end(span, obs.PhaseFinalCompress, obs.PhaseStats{})
	sp.end(root, obs.PhaseRun, obs.PhaseStats{})
}

// SampleFrequentElement estimates the most frequent value in π by
// inspecting `samples` uniformly random entries (Fig 5 line 10). After
// a compress pass all trees are depth-1, so π values are component
// representatives and the mode of the sample identifies the largest
// intermediate component with high probability. The estimate only
// affects performance, never correctness (Theorem 3 holds for any
// choice of component).
func SampleFrequentElement(p Parent, samples int, seed uint64) graph.V {
	v, _ := SampleFrequentElementRatio(p, samples, seed)
	return v
}

// SampleFrequentElementRatio is SampleFrequentElement returning also
// the mode's observed sample frequency in [0,1] — the skip ratio: the
// estimated fraction of vertices the final phase will skip.
func SampleFrequentElementRatio(p Parent, samples int, seed uint64) (graph.V, float64) {
	n := len(p)
	if n == 0 || samples <= 0 {
		return 0, 0
	}
	if samples > n {
		samples = n
	}
	// Open-addressed counting table in place of a map[V]int: at the
	// default 1024 samples the table is two small arrays probed linearly
	// at load factor <= 1/2, with no per-sample allocation or hashing
	// through the runtime map.
	tableSize, tableBits := 1, 0
	for tableSize < 2*samples {
		tableSize <<= 1
		tableBits++
	}
	shift := uint(64 - tableBits)
	mask := uint64(tableSize - 1)
	keys := make([]graph.V, tableSize)
	counts := make([]int32, tableSize)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	best, bestCount := graph.V(0), int32(-1)
	for i := 0; i < samples; i++ {
		// SplitMix64 step inlined; this sampling is sequential and
		// cheap relative to the link phases (Fig 7c's "F" section).
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v := p.Get(graph.V(z % uint64(n)))
		// Fibonacci hashing: the high bits of the product mix all input
		// bits, unlike a low-bit mask.
		idx := (uint64(v) * 0x9e3779b97f4a7c15) >> shift
		for counts[idx] != 0 && keys[idx] != v {
			idx = (idx + 1) & mask
		}
		keys[idx] = v
		counts[idx]++
		if counts[idx] > bestCount {
			best, bestCount = v, counts[idx]
		}
	}
	return best, float64(bestCount) / float64(samples)
}

// parallelFor is the vertex-loop scheduler shared by the core phases:
// dynamic chunks large enough to amortize scheduling but small enough
// to balance skewed degree distributions.
func parallelFor(n, parallelism int, body func(i int)) {
	concurrent.ForGrain(n, parallelism, 512, body)
}

// workerCount returns the number of distinct worker ids parallelFor may
// use for the given parallelism setting.
func workerCount(parallelism int) int {
	return concurrent.Procs(parallelism)
}
