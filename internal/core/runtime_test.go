package core

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// TestRunSequentialDeterminism pins the Parallelism-1 contract after
// the pool/edge-balanced rewrite: with a single worker the runtime
// executes chunks in ascending order on the caller, so two runs produce
// byte-identical π arrays (not just the same partition).
func TestRunSequentialDeterminism(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(10, 99)
		opt := DefaultOptions()
		opt.Parallelism = 1
		p1 := Run(g, opt)
		p2 := Run(g, opt)
		for v := range p1 {
			if p1[v] != p2[v] {
				t.Fatalf("%s: sequential runs differ at %d: %d vs %d", sg.Name, v, p1[v], p2[v])
			}
		}
	}
}

// TestLinkAllEdgeBalancedMatchesOracle exercises the arc-balanced link
// over every arc (Run with no rounds and no skipping) across grains
// that force hub splitting (grain 16 on a power-law graph) and grains
// larger than the whole arc set.
func TestLinkAllEdgeBalancedMatchesOracle(t *testing.T) {
	g := gen.Kronecker(11, 8, gen.Graph500, 5)
	for _, grain := range []int{0, 16, 1 << 30} {
		for _, par := range []int{1, 4} {
			p := Run(g, Options{NeighborRounds: -1, Parallelism: par, EdgeGrain: grain})
			if bad := p.Validate(); bad >= 0 {
				t.Fatalf("grain=%d par=%d: invariant violated at %d", grain, par, bad)
			}
			checkAgainstOracle(t, g, "all arcs", p.Labels())
		}
	}
}

// TestRunEdgeGrainSweep checks the EdgeGrain option end to end: every
// grain must yield the canonical labeling.
func TestRunEdgeGrainSweep(t *testing.T) {
	g := gen.WebLike(4000, 12, 8)
	want := Run(g, DefaultOptions())
	for _, grain := range []int{1, 64, 100_000} {
		opt := DefaultOptions()
		opt.EdgeGrain = grain
		got := Run(g, opt)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("grain=%d: labels differ at %d", grain, v)
			}
		}
	}
}

// TestSampleFrequentElementFindsMode checks the open-addressed counting
// table against a case with a known dominant component: after linking a
// giant path, the minimum id dominates any sample.
func TestSampleFrequentElementFindsMode(t *testing.T) {
	const n = 10_000
	p := NewParent(n)
	for v := graph.V(1); v < n; v++ {
		Link(p, v-1, v)
	}
	CompressAll(p, 1)
	for _, samples := range []int{1, 7, 1024, n, 3 * n} {
		if got := SampleFrequentElement(p, samples, 42); got != 0 {
			t.Fatalf("samples=%d: mode = %d, want 0", samples, got)
		}
	}
}

// TestSampleFrequentElementDeterministic pins that the table rewrite
// preserved the sequential sampling order: same seed, same answer.
func TestSampleFrequentElementDeterministic(t *testing.T) {
	g := gen.URandDegree(5000, 4, 3)
	p := Run(g, Options{NeighborRounds: 1, SkipLargest: false})
	a := SampleFrequentElement(p, 256, 7)
	b := SampleFrequentElement(p, 256, 7)
	if a != b {
		t.Fatalf("same seed produced %d then %d", a, b)
	}
}
