package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerPhaseTree(t *testing.T) {
	tr := NewTracer()
	root := tr.BeginPhase(PhaseRun)
	r1 := tr.BeginPhase(PhaseNeighborRound)
	tr.EndPhase(r1, PhaseStats{Edges: 10, Links: 10, Iters: 12, MaxIters: 3})
	c1 := tr.BeginPhase(PhaseCompress)
	tr.EndPhase(c1, PhaseStats{})
	tr.EndPhase(root, PhaseStats{})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != PhaseRun || spans[0].Parent != -1 {
		t.Errorf("root span = %+v, want name %q parent -1", spans[0], PhaseRun)
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID {
			t.Errorf("span %q parent = %d, want root %d", s.Name, s.Parent, spans[0].ID)
		}
	}
	for _, s := range spans {
		if s.DurNS <= 0 {
			t.Errorf("span %q has DurNS %d, want > 0 after EndPhase", s.Name, s.DurNS)
		}
	}
	if spans[1].Stats.Edges != 10 || spans[1].Stats.MaxIters != 3 {
		t.Errorf("stats not attached: %+v", spans[1].Stats)
	}
}

func TestTracerEndPhaseIdempotent(t *testing.T) {
	tr := NewTracer()
	id := tr.BeginPhase(PhaseCompress)
	tr.EndPhase(id, PhaseStats{Edges: 1})
	tr.EndPhase(id, PhaseStats{Edges: 99}) // double close must not overwrite
	tr.EndPhase(SpanID(42), PhaseStats{})  // unknown id must not panic
	tr.EndPhase(SpanID(-1), PhaseStats{})
	if got := tr.Spans()[0].Stats.Edges; got != 1 {
		t.Errorf("double EndPhase overwrote stats: Edges = %d, want 1", got)
	}
}

func TestTracerClosesForgottenChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.BeginPhase(PhaseRun)
	tr.BeginPhase(PhaseNeighborRound) // never ended
	tr.EndPhase(root, PhaseStats{})
	// A new root must open at the top level, not under the leaked child.
	next := tr.BeginPhase(PhaseRun)
	if got := tr.Spans()[next].Parent; got != -1 {
		t.Errorf("span after closing root has parent %d, want -1", got)
	}
}

func TestJSONLSinkStream(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	root := tr.BeginPhase(PhaseRun)
	child := tr.BeginPhase(PhaseSample)
	tr.EndPhase(child, PhaseStats{SkipRatio: 0.5})
	tr.EndPhase(root, PhaseStats{})

	sc := bufio.NewScanner(&buf)
	var lines []Span
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	// Spans stream in completion order: child first.
	if lines[0].Name != PhaseSample || lines[0].Stats.SkipRatio != 0.5 {
		t.Errorf("first emitted span = %+v, want sample with ratio 0.5", lines[0])
	}
	if lines[1].Name != PhaseRun {
		t.Errorf("second emitted span = %+v, want run root", lines[1])
	}
}

func TestRingSinkEviction(t *testing.T) {
	r := NewRingSink(2)
	tr := NewTracer(r)
	for i := 0; i < 3; i++ {
		tr.EndPhase(tr.BeginPhase(PhaseCompress), PhaseStats{Edges: int64(i)})
	}
	got := r.Spans()
	if len(got) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(got))
	}
	if got[0].Stats.Edges != 1 || got[1].Stats.Edges != 2 {
		t.Errorf("ring spans = %v, want oldest-first [1 2]", got)
	}
}

// TestTracerFeedsEverySink pins the one span path: each span a tracer
// closes reaches every sink, once, in completion order.
func TestTracerFeedsEverySink(t *testing.T) {
	reg := NewRegistry()
	ring := NewRingSink(8)
	fr := NewFlightRecorder(1, 16)
	tr := NewTracer(ring, NewRunMetrics(reg), fr)
	root := tr.BeginPhase(PhaseRun)
	tr.EndPhase(tr.BeginPhase(PhaseNeighborRound), PhaseStats{Edges: 7, Links: 7})
	tr.EndPhase(root, PhaseStats{})

	if got := ring.Spans(); len(got) != 2 || got[0].Name != PhaseNeighborRound || got[1].Name != PhaseRun {
		t.Errorf("ring saw %+v, want neighbor_round then afforest_run", got)
	}
	for name, want := range map[string]int64{
		"afforest_runs_total":        1,
		"afforest_link_rounds_total": 1,
		"afforest_link_calls_total":  7,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	dump := string(fr.Snapshot(DumpOptions{Canonical: true}))
	if n := strings.Count(dump, `"kind":"phase_end"`); n != 2 {
		t.Errorf("flight recorded %d phase_end events, want 2:\n%s", n, dump)
	}
}

// TestSinksConcurrentEmit feeds shared sinks from several tracers at
// once, the way a server's batcher and a bootstrap run do; under -race
// it checks the sinks' own synchronization.
func TestSinksConcurrentEmit(t *testing.T) {
	const tracers, spans = 4, 100
	reg := NewRegistry()
	fr := NewFlightRecorder(1, 2*tracers*spans)
	det := NewAnomalyDetector(reg)
	var wg sync.WaitGroup
	for i := 0; i < tracers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTracer(NewRunMetrics(reg), det, fr)
			for j := 0; j < spans; j++ {
				tr.EndPhase(tr.BeginPhase(PhaseNeighborRound), PhaseStats{Links: int64(spans - j)})
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("afforest_link_rounds_total", "").Value(); got != tracers*spans {
		t.Errorf("link rounds = %d, want %d", got, tracers*spans)
	}
	dump := string(fr.Snapshot(DumpOptions{Canonical: true}))
	if n := strings.Count(dump, `"kind":"phase_end"`); n != tracers*spans {
		t.Errorf("flight recorded %d phase_end events, want %d", n, tracers*spans)
	}
}

func TestReportBreakdown(t *testing.T) {
	tr := NewTracer()
	root := tr.BeginPhase(PhaseRun)
	r1 := tr.BeginPhase(PhaseNeighborRound)
	tr.EndPhase(r1, PhaseStats{Edges: 100})
	c1 := tr.BeginPhase(PhaseCompress)
	tr.EndPhase(c1, PhaseStats{})
	tr.EndPhase(root, PhaseStats{})

	rep := tr.Report()
	if rep.TotalNS != tr.Spans()[0].DurNS {
		t.Errorf("TotalNS = %d, want root DurNS %d", rep.TotalNS, tr.Spans()[0].DurNS)
	}
	if rep.Edges != 100 {
		t.Errorf("Edges = %d, want 100 (leaves only)", rep.Edges)
	}
	rows := rep.Rows()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 leaves (root excluded)", len(rows))
	}
	if rows[0].Name != PhaseNeighborRound || rows[0].NSPerEdge <= 0 {
		t.Errorf("row 0 = %+v, want neighbor_round with ns/edge > 0", rows[0])
	}
	if rows[1].NSPerEdge != 0 {
		t.Errorf("compress row has ns/edge %v, want 0 (no edges)", rows[1].NSPerEdge)
	}

	var buf bytes.Buffer
	if err := rep.WriteBreakdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase", PhaseNeighborRound, PhaseCompress, "TOTAL", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
}
