package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// smallGraph is a two-component graph used by the validation tests.
func smallGraph() *graph.CSR {
	return gen.URandComponents(256, 8, 0.5, 1)
}

// smallCfg keeps harness tests fast while exercising every code path.
func smallCfg() Config {
	return Config{Scale: 11, Runs: 2, Seed: 7, Validate: true}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2(smallCfg())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 suite graphs", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 5 {
			t.Fatalf("row %v: want 5 columns", row)
		}
	}
	var sb strings.Builder
	tb.Render(&sb)
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("missing title")
	}
}

func TestTable3Shape(t *testing.T) {
	tb := Table3(smallCfg())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] == "" {
			t.Fatalf("row %v missing analogue column", row)
		}
	}
}

func TestFig6aAnd6bShape(t *testing.T) {
	a := Fig6a(smallCfg())
	b := Fig6b(smallCfg())
	for _, tb := range []*stringsTable{{"6a", a.Rows}, {"6b", b.Rows}} {
		strategies := map[string]bool{}
		for _, row := range tb.rows {
			strategies[row[0]] = true
		}
		for _, want := range []string{"row", "edge", "neighbor", "optimal"} {
			if !strategies[want] {
				t.Fatalf("fig %s missing strategy %s", tb.name, want)
			}
		}
	}
}

type stringsTable struct {
	name string
	rows [][]string
}

func TestFig6cShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := Fig6c(cfg)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 degrees", len(tb.Rows))
	}
}

func TestFig7Artifacts(t *testing.T) {
	r := Fig7(smallCfg())
	if len(r.Panels) != 3 {
		t.Fatalf("panels = %d, want 3", len(r.Panels))
	}
	names := []string{"(a) shiloach-vishkin", "(b) afforest w/o skip", "(c) afforest"}
	for i, p := range r.Panels {
		if p.Name != names[i] {
			t.Fatalf("panel %d = %q", i, p.Name)
		}
		if len(p.Heatmap) == 0 || len(p.Scatter) == 0 {
			t.Fatalf("panel %s empty", p.Name)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "access density") || !strings.Contains(out, "π accesses by phase") {
		t.Fatal("render missing sections")
	}
}

func TestFig8aShapeAndSpeedupColumns(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := Fig8a(cfg)
	if len(tb.Rows) != 7 { // 6 graphs + geomean
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "geomean" || !strings.HasSuffix(last[len(last)-1], "x") {
		t.Fatalf("geomean row: %v", last)
	}
}

func TestFig8bShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := Fig8b(cfg, []int{1, 2})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Columns: threads, 4x(ms, wallx), 3x modelx.
	if len(tb.Rows[0]) != 12 {
		t.Fatalf("columns = %d, want 12", len(tb.Rows[0]))
	}
	// Single-thread wall and modeled speedups must be exactly 1.00x.
	for _, i := range []int{2, 4, 6, 8, 9, 10, 11} {
		if sp := tb.Rows[0][i]; sp != "1.00x" {
			t.Fatalf("thread-1 speedup col %d = %s", i, sp)
		}
	}
	// Two-worker modeled speedups must exceed 1 (dynamic chunking
	// balances the web graph well).
	for i := 9; i < 12; i++ {
		if sp := tb.Rows[1][i]; sp == "1.00x" {
			t.Fatalf("thread-2 model speedup = %s — balance model broken", sp)
		}
	}
}

func TestFig8cShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := Fig8c(cfg)
	// Small scales clamp the tiniest f values into one row; at scale 10
	// the floor is 64/1024 = 1/16, leaving {1/16, 1e-1, 1}.
	if len(tb.Rows) < 3 || len(tb.Rows) > 6 {
		t.Fatalf("rows = %d, want 3..6 f values", len(tb.Rows))
	}
}

func TestAlgorithmsRoster(t *testing.T) {
	want := []string{"dobfs", "afforest-noskip", "afforest"}
	var got []string
	for _, a := range algorithms(want...) {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("picked %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm accepted")
		}
	}()
	algorithms("nope")
}

func TestCheckLabelingPanicsOnBadLabels(t *testing.T) {
	cfg := smallCfg()
	g := smallGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("bad labeling did not panic")
		}
	}()
	checkLabeling(cfg, g, "bogus", make([]uint32, g.NumVertices()))
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 16 || cfg.Runs != 5 || !cfg.Validate {
		t.Fatalf("defaults: %+v", cfg)
	}
	var zero Config
	wd := zero.withDefaults()
	if wd.Scale == 0 || wd.Runs == 0 || wd.Parallelism == 0 {
		t.Fatalf("withDefaults left zeros: %+v", wd)
	}
}

func TestAblationRoundsShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := AblationRounds(cfg)
	if len(tb.Rows) != 18 { // 3 graphs x 6 round settings
		t.Fatalf("rows = %d, want 18", len(tb.Rows))
	}
	// Row ordering: the first row is the rounds=0 setting.
	if tb.Rows[0][1] != "0" {
		t.Fatalf("first row rounds = %v", tb.Rows[0])
	}
}

func TestAblationSampleSizeShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := AblationSampleSize(cfg)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// With 4096 samples on a giant-component graph, the mode must be
	// found essentially always.
	last := tb.Rows[len(tb.Rows)-1]
	if last[3] == "0" {
		t.Fatalf("4096 samples never found the mode: %v", last)
	}
}

func TestAblationRelabelShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := AblationRelabel(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "original" || tb.Rows[1][0] != "degree-sorted" {
		t.Fatalf("layouts: %v / %v", tb.Rows[0], tb.Rows[1])
	}
}

func TestExtDistShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 10
	tb := ExtDist(cfg)
	if len(tb.Rows) != 8 { // 2 graphs x 4 node counts
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestExtGPUShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 8
	tb := ExtGPU(cfg)
	if len(tb.Rows) != 18 { // 6 graphs x 3 algorithms
		t.Fatalf("rows = %d, want 18", len(tb.Rows))
	}
	// Afforest must post the fewest transactions on every graph.
	for i := 0; i < len(tb.Rows); i += 3 {
		aff, sv := tb.Rows[i], tb.Rows[i+1]
		if aff[1] != "afforest-gpu" {
			t.Fatalf("row order: %v", aff)
		}
		var affTx, svTx int64
		if _, err := fmt.Sscan(aff[2], &affTx); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(sv[2], &svTx); err != nil {
			t.Fatal(err)
		}
		if affTx >= svTx {
			t.Fatalf("%s: afforest transactions %d not below SV %d", aff[0], affTx, svTx)
		}
	}
}
