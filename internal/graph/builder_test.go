package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"afforest/internal/concurrent"
)

// specBuild is the serial specification Build is tested against: each
// kept edge appends its two arcs to its endpoints' rows in edge order,
// and each row is then sorted and deduplicated as the options ask. Rows
// live in a map, so a wide, sparse graph costs only its offsets.
func specBuild(edges []Edge, opt BuildOptions) ([]int64, []V) {
	n := opt.NumVertices
	if n == 0 {
		for _, e := range edges {
			n = max(n, int(e.U)+1, int(e.V)+1)
		}
	}
	rows := map[V][]V{}
	for _, e := range edges {
		if (opt.KeepSelfLoops || e.U != e.V) && int(e.U) < n && int(e.V) < n {
			rows[e.U] = append(rows[e.U], e.V)
			rows[e.V] = append(rows[e.V], e.U)
		}
	}
	offsets := make([]int64, n+1)
	var sources []V
	for v, row := range rows {
		if !opt.PreserveOrder {
			slices.Sort(row)
			if !opt.KeepDuplicates {
				row = slices.Compact(row)
			}
		}
		rows[v] = row
		offsets[v+1] = int64(len(row))
		sources = append(sources, v)
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	slices.Sort(sources)
	targets := []V{}
	for _, v := range sources {
		targets = append(targets, rows[v]...)
	}
	return offsets, targets
}

// checkBuild fails t unless Build's offsets and targets equal the
// spec's element for element.
func checkBuild(t *testing.T, name string, edges []Edge, opt BuildOptions) {
	t.Helper()
	g := Build(edges, opt)
	wantOff, wantTgt := specBuild(edges, opt)
	if !slices.Equal(g.offsets, wantOff) {
		t.Fatalf("%s (%d edges, %+v): offsets differ from the spec", name, len(edges), opt)
	}
	if !slices.Equal(g.targets, wantTgt) {
		t.Fatalf("%s (%d edges, %+v): targets differ from the spec", name, len(edges), opt)
	}
}

// allOptions returns the eight combinations of Build's boolean options
// on top of base.
func allOptions(base BuildOptions) []BuildOptions {
	var opts []BuildOptions
	for bits := 0; bits < 8; bits++ {
		o := base
		o.KeepDuplicates, o.KeepSelfLoops, o.PreserveOrder = bits&1 != 0, bits&2 != 0, bits&4 != 0
		opts = append(opts, o)
	}
	return opts
}

// randomEdges draws m edges on [0, n) with self-loops, repeated and
// reversed edges, and, when hub is set, one vertex on most edges so
// that its block holds most arcs.
func randomEdges(rng *rand.Rand, n, m int, hub bool) []Edge {
	h := V(rng.Intn(n))
	edges := make([]Edge, m)
	for i := range edges {
		u, v := V(rng.Intn(n)), V(rng.Intn(n))
		switch r := rng.Intn(20); {
		case hub && r < 16:
			u = h
		case r == 16:
			v = u
		case r >= 17 && i > 0:
			u, v = edges[i-1].V, edges[i-1].U
		}
		edges[i] = Edge{u, v}
	}
	return edges
}

func TestBuildMatchesSpec(t *testing.T) {
	schedules := []*concurrent.DetConfig{nil, {Seed: 0x5eed, Serial: true}, {Seed: 0x5eed, Serial: false}}
	for si, det := range schedules {
		rng := rand.New(rand.NewSource(int64(si) + 1))
		concurrent.SetDeterministic(det)
		for trial := 0; trial < 24; trial++ {
			n := 1 + rng.Intn([]int{300, 5000, 1 << 14}[trial%3])
			edges := randomEdges(rng, n, rng.Intn(3*n+10), trial%4 == 0)
			nv := []int{0, n, n / 2}[trial%3]
			for _, opt := range allOptions(BuildOptions{NumVertices: nv, Parallelism: 1 + trial%8}) {
				checkBuild(t, fmt.Sprintf("schedule %d trial %d", si, trial), edges, opt)
			}
		}
		concurrent.SetDeterministic(nil)
	}
}

func TestBuildFixedCases(t *testing.T) {
	// n = 2^23+1 is the smallest n with 2^16-wide blocks, so local id
	// 65535 occurs (vertices 65535 and 2^23-1), and the last block holds
	// one vertex.
	const wide = 1<<23 + 1
	if blockShift(wide) != 16 || blockShift(wide-1) != 15 {
		t.Fatalf("blockShift(%d) = %d, want 16", wide, blockShift(wide))
	}
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"empty", 0, nil},
		{"empty with vertices", 5, nil},
		{"n=1", 1, []Edge{{0, 0}, {0, 0}}},
		{"n not a block multiple", 1001, randomEdges(rand.New(rand.NewSource(7)), 1001, 4000, true)},
		{"local id 65535", wide, []Edge{
			{65535, 0}, {65535, 65536}, {65535, 65535}, {1<<23 - 1, 1 << 23},
			{1 << 23, 65535}, {65536, 65535}, {1<<23 - 1, 1<<23 - 1}, {1 << 23, 1 << 23},
		}},
	}
	for _, tc := range cases {
		var opts []BuildOptions
		for _, nv := range []int{0, tc.n} {
			opts = append(opts, allOptions(BuildOptions{NumVertices: nv, Parallelism: 3})...)
		}
		if tc.n == wide {
			// Each build walks 2^23 offsets, slow under -race, and the
			// block layout does not depend on the options: one sorted,
			// deduplicated build and one in input order with self-loops.
			opts = []BuildOptions{{Parallelism: 3}, {KeepSelfLoops: true, PreserveOrder: true, Parallelism: 3}}
		}
		for _, opt := range opts {
			checkBuild(t, tc.name, tc.edges, opt)
		}
	}
}
