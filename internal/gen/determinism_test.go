package gen

import (
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// Seed-stability audit: every generator must be a pure function of
// (shape parameters, seed) — same inputs, byte-identical CSR — and the
// bytes must not depend on how the worker pool schedules the parallel
// sampling loops. Per-index RNG hashing (hash64(seed, i) in rng.go) is
// what buys the latter; this test is the guard that keeps it true as
// generators evolve.

func sameCSR(a, b *graph.CSR) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	ao, bo := a.Offsets(), b.Offsets()
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	_, at := a.Adjacency(0, a.NumVertices())
	_, bt := b.Adjacency(0, b.NumVertices())
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}

// genCases covers every exported generator at small scale.
func genCases() []struct {
	name  string
	build func(seed uint64) *graph.CSR
} {
	return []struct {
		name  string
		build func(seed uint64) *graph.CSR
	}{
		{"URand", func(s uint64) *graph.CSR { return URand(1<<10, 1<<13, s) }},
		{"URandDegree", func(s uint64) *graph.CSR { return URandDegree(1<<10, 8, s) }},
		{"URandComponents", func(s uint64) *graph.CSR { return URandComponents(1<<10, 8, 0.25, s) }},
		{"Kronecker", func(s uint64) *graph.CSR { return Kronecker(9, 8, Graph500, s) }},
		{"TwitterLike", func(s uint64) *graph.CSR { return TwitterLike(1<<10, 4, s) }},
		{"WebLike", func(s uint64) *graph.CSR { return WebLike(1<<10, 8, s) }},
		{"Road", func(s uint64) *graph.CSR { return Road(1<<10, s) }},
		{"RoadGrid", func(s uint64) *graph.CSR { return RoadGrid(48, 24, 0.9, s) }},
		{"Regular", func(s uint64) *graph.CSR { return Regular(1<<10, 6, s) }},
		{"RGG", func(s uint64) *graph.CSR { return RGGDegree(1<<10, 8, s) }},
	}
}

func TestGeneratorsAreSeedStable(t *testing.T) {
	for _, tc := range genCases() {
		base := tc.build(42)
		if again := tc.build(42); !sameCSR(base, again) {
			t.Errorf("%s: two builds with seed 42 differ", tc.name)
		}
		if other := tc.build(43); sameCSR(base, other) {
			t.Errorf("%s: seeds 42 and 43 produced identical graphs", tc.name)
		}
	}
}

// TestGeneratorsAreScheduleIndependent rebuilds each generator's
// output under seeded deterministic scheduling — serial interleave and
// two permuted-parallel schedules — and requires the bytes to match
// the free-running build. A generator whose output shifted with chunk
// dispatch order would make corpus names unusable as replay handles.
func TestGeneratorsAreScheduleIndependent(t *testing.T) {
	for _, tc := range genCases() {
		base := tc.build(42)
		for _, det := range []concurrent.DetConfig{
			{Seed: 0xa11ce, Serial: true},
			{Seed: 0xa11ce, Serial: false},
			{Seed: 0xb0b, Serial: false},
		} {
			concurrent.SetDeterministic(&det)
			got := tc.build(42)
			concurrent.SetDeterministic(nil)
			if !sameCSR(base, got) {
				t.Errorf("%s: output depends on the dispatch schedule (det=%+v)", tc.name, det)
			}
		}
	}
}

func TestSuiteIsSeedStable(t *testing.T) {
	for _, sg := range Suite() {
		base := sg.Build(8, 7)
		if again := sg.Build(8, 7); !sameCSR(base, again) {
			t.Errorf("suite %s: two builds with the same seed differ", sg.Name)
		}
	}
}
