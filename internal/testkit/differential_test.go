package testkit

import (
	"slices"
	"testing"

	"afforest/internal/baselines"
)

// matrixSeeds is the acceptance seed set: eight seeds, alternating
// deterministic modes (even = serial-interleave, odd = permuted
// parallel dispatch), with a few far-apart values so chunk
// permutations are not near-neighbors of each other.
var matrixSeeds = []uint64{0, 1, 2, 3, 0xdead, 0xbeef, 0x5eed5eed, 0x9e3779b97f4a7c15}

// matrixAlgos are the algorithms TestDifferentialMatrix sweeps in full;
// TestDifferentialVariants sweeps the rest of the roster.
var matrixAlgos = []string{"afforest", "sv", "lp"}

// TestDifferentialMatrix is the acceptance sweep from the harness
// design: every corpus graph × 8 seeds × {1, 2, 8} workers ×
// {afforest, sv, lp} must be label-equivalent (up to renaming) to the
// sequential union-find oracle, with per-phase invariant audits on the
// Afforest runs. A failing cell prints its ScheduleID — feed that
// string to ParseScheduleID + Replay to re-run the exact schedule.
func TestDifferentialMatrix(t *testing.T) {
	m := Matrix{
		Algos:   matrixAlgos,
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

// TestDifferentialVariants sweeps every other roster entry and the
// harness's own afforest-nosample over the whole corpus with a smaller
// seed set, so an entry added to the roster joins by default. Every
// one must agree with the oracle on every graph.
func TestDifferentialVariants(t *testing.T) {
	algos := []string{"afforest-nosample"}
	for _, name := range baselines.Names() {
		if !slices.Contains(matrixAlgos, name) {
			algos = append(algos, name)
		}
	}
	m := Matrix{
		Algos:   algos,
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
