package gen

import (
	"encoding/binary"
	"hash/fnv"
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

type genCase struct {
	name  string
	build func(seed uint64) *graph.CSR
}

// genCases covers every exported generator at small scale.
func genCases() []genCase {
	return []genCase{
		{"URand", func(s uint64) *graph.CSR { return URand(1<<10, 1<<13, s) }},
		{"URandDegree", func(s uint64) *graph.CSR { return URandDegree(1<<10, 8, s) }},
		{"URandComponents", func(s uint64) *graph.CSR { return URandComponents(1<<10, 8, 0.25, s) }},
		{"Kronecker", func(s uint64) *graph.CSR { return Kronecker(9, 8, Graph500, s) }},
		{"TwitterLike", func(s uint64) *graph.CSR { return TwitterLike(1<<10, 4, s) }},
		{"WebLike", func(s uint64) *graph.CSR { return WebLike(1<<10, 8, s) }},
		{"Road", func(s uint64) *graph.CSR { return Road(1<<10, s) }},
		{"RoadGrid", func(s uint64) *graph.CSR { return RoadGrid(48, 24, 0.9, s) }},
		{"Regular", func(s uint64) *graph.CSR { return Regular(1<<10, 6, s) }},
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

// csrDigest is the FNV-64a hash of g's offsets (8-byte little-endian)
// followed by its targets (4-byte little-endian).
func csrDigest(g *graph.CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, o := range g.Offsets() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	_, targets := g.Adjacency(0, g.NumVertices())
	for _, t := range targets {
		binary.LittleEndian.PutUint32(buf[:4], t)
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// TestGeneratorsMatchGoldenDigests pins generator output across
// commits: every genCases entry at seed 42, urand-18 and kron-18 at
// seed 1 (the cluster load tests' inputs) and at seed 42 (the perf
// gate's). A digest changes only if a generator or graph.Build changes
// a byte of its output, which would make recorded measurements
// incomparable.
func TestGeneratorsMatchGoldenDigests(t *testing.T) {
	golden := map[string]uint64{
		"URand":            0x31563940d62cabcd,
		"URandDegree":      0x705841ec3be4862e,
		"URandComponents":  0x3745fcc7d64de9dc,
		"Kronecker":        0xf75b02782b4ab0cd,
		"TwitterLike":      0x408925a4b0274653,
		"WebLike":          0xf3dace52aeee37f9,
		"Road":             0x698cd2cda4b73802,
		"RoadGrid":         0x12dba7207ee1048e,
		"Regular":          0xea33a24076355d51,
		"urand-18 seed 1":  0xc1bfe0249bafe576,
		"kron-18 seed 1":   0x1783b0d19781d9b5,
		"urand-18 seed 42": 0xfeb4648b10573548,
		"kron-18 seed 42":  0xec251c01e2ae94a6,
	}
	cases := append(genCases(),
		genCase{"urand-18 seed 1", func(uint64) *graph.CSR { return URandDegree(1<<18, 16, 1) }},
		genCase{"kron-18 seed 1", func(uint64) *graph.CSR { return Kronecker(18, 16, Graph500, 1) }},
		genCase{"urand-18 seed 42", func(s uint64) *graph.CSR { return URandDegree(1<<18, 16, s) }},
		genCase{"kron-18 seed 42", func(s uint64) *graph.CSR { return Kronecker(18, 16, Graph500, s) }},
	)
	for _, tc := range cases {
		if got := csrDigest(tc.build(42)); got != golden[tc.name] {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, golden[tc.name])
		}
	}
}
