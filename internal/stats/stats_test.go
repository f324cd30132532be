package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := Median(xs); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	// Interpolation: p50 of {1,2} is 1.5.
	if p := Percentile([]float64{2, 1}, 50); p != 1.5 {
		t.Fatalf("interpolated median = %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	// Input must not be mutated (sorted copy).
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
	// Non-positive values skipped.
	if g := GeoMean([]float64{-1, 0, 4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean with junk = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("empty geomean = %v", g)
	}
}

func TestMeasureFunc(t *testing.T) {
	calls := 0
	tm := MeasureFunc(5, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls != 6 { // warm-up + 5 timed
		t.Fatalf("calls = %d, want 6", calls)
	}
	if tm.Runs != 5 {
		t.Fatalf("runs = %d", tm.Runs)
	}
	if tm.Median < 500*time.Microsecond {
		t.Fatalf("median = %v, implausibly fast for 1ms sleeps", tm.Median)
	}
	if tm.P25 > tm.Median || tm.Median > tm.P75 || tm.Min > tm.P25 || tm.P75 > tm.Max {
		t.Fatalf("quartile ordering broken: %+v", tm)
	}
	if s := tm.String(); !strings.Contains(s, "[") {
		t.Fatalf("String: %q", s)
	}
}

func TestMeasureFuncMinRuns(t *testing.T) {
	tm := MeasureFunc(0, func() {})
	if tm.Runs != 1 {
		t.Fatalf("runs = %d, want clamped to 1", tm.Runs)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "graph", "time", "speedup")
	tb.AddRow("road", "12ms", 3.25)
	tb.AddRow("kron-very-long-name", "7ms", 67.0)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "kron-very-long-name") || !strings.Contains(out, "67") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}

	var tsv strings.Builder
	tb.RenderTSV(&tsv)
	if !strings.HasPrefix(tsv.String(), "# demo\ngraph\ttime\tspeedup\n") {
		t.Fatalf("TSV:\n%s", tsv.String())
	}
}
