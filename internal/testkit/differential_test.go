package testkit

import (
	"testing"
)

// matrixSeeds is the acceptance seed set: eight seeds, alternating
// deterministic modes (even = serial-interleave, odd = permuted
// parallel dispatch), with a few far-apart values so chunk
// permutations are not near-neighbors of each other.
var matrixSeeds = []uint64{0, 1, 2, 3, 0xdead, 0xbeef, 0x5eed5eed, 0x9e3779b97f4a7c15}

// TestDifferentialMatrix is the acceptance sweep from the harness
// design: every corpus graph × 8 seeds × {1, 2, 8} workers ×
// {afforest, sv, lp} must be label-equivalent (up to renaming) to the
// sequential union-find oracle, with per-phase invariant audits on the
// Afforest runs. A failing cell prints its ScheduleID — feed that
// string to ParseScheduleID + Replay to re-run the exact schedule.
func TestDifferentialMatrix(t *testing.T) {
	m := Matrix{
		Algos:   []string{"afforest", "sv", "lp"},
		Seeds:   matrixSeeds,
		Workers: []int{1, 2, 8},
	}
	if testing.Short() {
		m.Seeds = matrixSeeds[:2]
		m.Workers = []int{1, 8}
	}
	cases := Corpus()
	if len(cases) < 20 {
		t.Fatalf("corpus has %d graphs, need >= 20 for the acceptance matrix", len(cases))
	}
	for _, f := range m.Run(cases) {
		t.Errorf("%s", f)
	}
}

// TestDifferentialVariants sweeps the remaining registered
// implementations — Afforest option variants and the secondary
// baselines — over the whole corpus with a smaller seed set. Every
// registered algorithm must agree with the oracle on every graph.
func TestDifferentialVariants(t *testing.T) {
	m := Matrix{
		Algos: []string{
			"afforest-noskip", "afforest-nosample",
			"sv-edgelist", "lp-datadriven", "bfs",
		},
		Seeds:   []uint64{6, 7},
		Workers: []int{1, 8},
	}
	if testing.Short() {
		m.Seeds = m.Seeds[:1]
	}
	for _, f := range m.Run(Corpus()) {
		t.Errorf("%s", f)
	}
}

// TestMatrixModePins checks that Mode forces the deterministic mode
// for every seed regardless of parity.
func TestMatrixModePins(t *testing.T) {
	for _, tc := range []struct {
		mode string
		seed uint64
		want bool
	}{
		{"serial", 1, true},
		{"serial", 2, true},
		{"parallel", 2, false},
		{"parallel", 3, false},
		{"", 2, true},
		{"", 3, false},
	} {
		if got := (Matrix{Mode: tc.mode}).serial(tc.seed); got != tc.want {
			t.Errorf("Matrix{Mode:%q}.serial(%d) = %v, want %v", tc.mode, tc.seed, got, tc.want)
		}
	}
}
