package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWireTraceSpanLifecycle(t *testing.T) {
	w := NewWireTrace(8)
	tr := w.NewTrace()
	if tr != 1 {
		t.Fatalf("first trace id = %d, want 1", tr)
	}
	if w.NewTrace() != 2 {
		t.Fatalf("trace ids not sequential")
	}

	root := w.Begin(tr, 0, false, WireQuery, RouterShard, 0)
	child := w.Begin(tr, root, false, WireQuery, 1, 0)
	if root == 0 || child == 0 || root == child {
		t.Fatalf("bad span ids root=%d child=%d", root, child)
	}
	if got := len(w.Spans()); got != 0 {
		t.Fatalf("open spans leaked into Spans(): %d", got)
	}
	w.End(child, WireEnd{ReqBytes: 4, RespBytes: 8, Pairs: 2})
	w.End(root, WireEnd{})
	w.End(0, WireEnd{})     // tracing-off sentinel: no-op
	w.End(child, WireEnd{}) // double end: no-op

	spans := w.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d completed spans, want 2", len(spans))
	}
	// Completion order: child first.
	if spans[0].ID != child || spans[0].Parent != root || spans[0].Shard != 1 {
		t.Fatalf("child span wrong: %+v", spans[0])
	}
	if spans[0].ReqBytes != 4 || spans[0].RespBytes != 8 || spans[0].Pairs != 2 {
		t.Fatalf("child measurements wrong: %+v", spans[0])
	}
	if spans[1].ID != root || spans[1].Parent != 0 || spans[1].Shard != RouterShard {
		t.Fatalf("root span wrong: %+v", spans[1])
	}
}

// TestWireTraceRingEviction: a fresh recorder holds no span storage; at
// capacity + k completed spans it keeps the last capacity, oldest first,
// for every k; and Drain empties it but keeps its storage for the spans
// that follow.
func TestWireTraceRingEviction(t *testing.T) {
	if w := NewWireTrace(0); cap(w.done.buf) != 0 {
		t.Fatalf("a fresh recorder holds storage for %d spans", cap(w.done.buf))
	}
	const capacity = 3
	record := func(w *WireTrace, from, to int) {
		for i := from; i < to; i++ {
			w.End(w.Begin(1, 0, false, WireEdges, i, 0), WireEnd{})
		}
	}
	check := func(k int, spans []WireSpan, first int) {
		t.Helper()
		if len(spans) != min(k, capacity) {
			t.Fatalf("%d spans recorded: ring kept %d, want %d", k, len(spans), min(k, capacity))
		}
		for i, sp := range spans {
			if sp.Shard != first+i {
				t.Fatalf("%d spans recorded: span %d shard = %d, want %d (oldest first)", k, i, sp.Shard, first+i)
			}
		}
	}
	for k := 0; k <= 2*capacity+1; k++ {
		w := NewWireTrace(capacity)
		record(w, 0, k)
		check(k, w.Spans(), max(k-capacity, 0))
		grown := cap(w.done.buf)
		check(k, w.Drain(), max(k-capacity, 0))
		if n := len(w.Spans()); n != 0 || cap(w.done.buf) != grown {
			t.Fatalf("after Drain: %d spans, storage %d, want 0 and %d", n, cap(w.done.buf), grown)
		}
		record(w, 100, 100+capacity+1)
		check(capacity+1, w.Spans(), 101)
	}
}

func TestWireTraceJSONLCanonical(t *testing.T) {
	w := NewWireTrace(8)
	tr := w.NewTrace()
	id := w.Begin(tr, 7, true, WireIngest, 2, 0)
	w.End(id, WireEnd{ReqBytes: 100, Pairs: 12, Merged: 3, Err: "boom"})

	var full, canon bytes.Buffer
	if err := w.WriteJSONL(&full, false); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJSONL(&canon, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":`, `"remote":true`, `"start_ns":`, `"dur_ns":`} {
		if !strings.Contains(full.String(), want) {
			t.Fatalf("full dump missing %s: %s", want, full.String())
		}
	}
	for _, ban := range []string{`"id":`, `"remote"`, `"start_ns"`, `"dur_ns"`} {
		if strings.Contains(canon.String(), ban) {
			t.Fatalf("canonical dump leaks %s: %s", ban, canon.String())
		}
	}
	for _, want := range []string{`"trace":1`, `"name":"ingest"`, `"shard":2`, `"req_bytes":100`, `"pairs":12`, `"merged":3`, `"err":"boom"`} {
		if !strings.Contains(canon.String(), want) {
			t.Fatalf("canonical dump missing %s: %s", want, canon.String())
		}
	}
}

// TestBuildClusterTimeline covers the merge: client spans aggregate into
// (trace, round, shard, op) lanes; shard-side server spans (round
// unknown on the wire) fold their durations into the k-th matching
// client lane; lanes sort deterministically regardless of input order.
func TestBuildClusterTimeline(t *testing.T) {
	spans := []WireSpan{
		// Shard server spans FIRST, shards interleaved — the builder
		// must not depend on input interleaving.
		{Trace: 1, Name: WireOutbox, Shard: 1, Remote: true, DurNS: 10},
		{Trace: 1, Name: WireOutbox, Shard: 0, Remote: true, DurNS: 20},
		{Trace: 1, Name: WireOutbox, Shard: 0, Remote: true, DurNS: 40},
		// Stage spans are not lanes.
		{Trace: 1, Name: WireDecode, Shard: 0, DurNS: 5},
		{Trace: 1, Name: WireWork, Shard: 0, DurNS: 5},
		// Router client spans: shard 0 ran outbox in rounds 1 and 2,
		// shard 1 only round 1.
		{Trace: 1, Name: WireOutbox, Shard: 0, Round: 1, Pairs: 3, ReqBytes: 5, RespBytes: 24, DurNS: 100},
		{Trace: 1, Name: WireOutbox, Shard: 1, Round: 1, Pairs: 1, ReqBytes: 5, RespBytes: 8, DurNS: 50},
		{Trace: 1, Name: WireOutbox, Shard: 0, Round: 2, ReqBytes: 5, DurNS: 60},
		{Trace: 1, Name: WireIngest, Shard: 1, Round: 1, Pairs: 3, ReqBytes: 29, Merged: 2, DurNS: 70},
		// Grouping spans are not lanes.
		{Trace: 1, Name: WireRound, Shard: RouterShard, Round: 1, DurNS: 500},
		{Trace: 1, Name: WireExchange, Shard: RouterShard, DurNS: 900},
		// A second trace with a request-level op.
		{Trace: 2, Name: WireQuery, Shard: 1, ReqBytes: 4, RespBytes: 4, DurNS: 30},
	}
	rows := BuildClusterTimeline(spans)
	want := []ClusterLaneRow{
		{Trace: 1, Round: 1, Shard: 0, Op: WireOutbox, Frames: 1, Pairs: 3, Bytes: 29, NS: 100, SrvNS: 20},
		{Trace: 1, Round: 1, Shard: 1, Op: WireOutbox, Frames: 1, Pairs: 1, Bytes: 13, NS: 50, SrvNS: 10},
		{Trace: 1, Round: 1, Shard: 1, Op: WireIngest, Frames: 1, Pairs: 3, Bytes: 29, Merged: 2, NS: 70},
		{Trace: 1, Round: 2, Shard: 0, Op: WireOutbox, Frames: 1, Bytes: 5, NS: 60, SrvNS: 40},
		{Trace: 2, Round: 0, Shard: 1, Op: WireQuery, Frames: 1, Bytes: 8, NS: 30},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d lanes, want %d: %+v", len(rows), len(want), rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("lane %d:\n got %+v\nwant %+v", i, rows[i], want[i])
		}
	}

	var canon bytes.Buffer
	if err := WriteClusterTimeline(&canon, rows, true); err != nil {
		t.Fatal(err)
	}
	out := canon.String()
	if !strings.Contains(out, "trace 1") || !strings.Contains(out, "trace 2") {
		t.Fatalf("rendering missing trace headers:\n%s", out)
	}
	if strings.Contains(out, "srv_ns") {
		t.Fatalf("canonical rendering leaks wall-clock columns:\n%s", out)
	}
	var full bytes.Buffer
	if err := WriteClusterTimeline(&full, rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "srv_ns") {
		t.Fatalf("full rendering missing srv_ns column:\n%s", full.String())
	}
}

// newTestDetector returns a detector with the rate limit disabled and a
// sink capturing records.
func newTestDetector() (*AnomalyDetector, *bytes.Buffer) {
	var sink bytes.Buffer
	d := NewAnomalyDetector(NewRegistry())
	d.minInterval = -1
	d.SetSink(&sink)
	return d, &sink
}

func lastRule(t *testing.T, d *AnomalyDetector) string {
	t.Helper()
	rec := d.Recent()
	if len(rec) == 0 {
		t.Fatal("no anomaly fired")
	}
	return rec[len(rec)-1].Rule
}

func TestExchangeRoundBlowupFires(t *testing.T) {
	d, sink := newTestDetector()
	for i := 0; i < 4; i++ {
		d.ObserveExchange(2) // healthy warmup, median 2
	}
	if len(d.Recent()) != 0 {
		t.Fatalf("fired during warmup: %+v", d.Recent())
	}
	d.ObserveExchange(9) // 9 > 4x median 2
	if got := lastRule(t, d); got != RuleExchangeRoundBlowup {
		t.Fatalf("rule = %s, want %s", got, RuleExchangeRoundBlowup)
	}
	if !strings.Contains(sink.String(), RuleExchangeRoundBlowup) {
		t.Fatalf("sink missing record: %s", sink.String())
	}
	// The blown-up sample must not enter the baseline: another healthy
	// exchange stays quiet, another blowup fires again.
	n := len(d.Recent())
	d.ObserveExchange(2)
	if len(d.Recent()) != n {
		t.Fatal("healthy exchange fired after blowup")
	}
	d.ObserveExchange(9)
	if len(d.Recent()) != n+1 {
		t.Fatal("second blowup suppressed: baseline absorbed the first")
	}
}

func TestShardLagFires(t *testing.T) {
	d, _ := newTestDetector()
	d.ObserveRoundLag(1, []int64{100, 110, 120}) // max 1.1x median: healthy
	if len(d.Recent()) != 0 {
		t.Fatalf("healthy round fired: %+v", d.Recent())
	}
	d.ObserveRoundLag(1, []int64{100}) // single live shard: no median to lag behind
	d.ObserveRoundLag(2, []int64{100, 2000, 120})
	if got := lastRule(t, d); got != RuleShardLag {
		t.Fatalf("rule = %s, want %s", got, RuleShardLag)
	}
	if !strings.Contains(d.Recent()[0].Detail, "shard 1") {
		t.Fatalf("detail does not name the lagging shard: %s", d.Recent()[0].Detail)
	}
}

func TestGhostChurnFires(t *testing.T) {
	d, _ := newTestDetector()
	d.ObserveExchangeRound(1, 1000)
	d.ObserveExchangeRound(2, 900) // churny but before the armed round
	d.ObserveExchangeRound(3, 500)
	if len(d.Recent()) != 0 {
		t.Fatalf("fired before round %d: %+v", 3, d.Recent())
	}
	d.ObserveExchangeRound(4, 200) // 200 > 10% of 1000
	if got := lastRule(t, d); got != RuleGhostChurn {
		t.Fatalf("rule = %s, want %s", got, RuleGhostChurn)
	}
	// A new exchange resets the baseline: geometric decay stays quiet.
	n := len(d.Recent())
	d.ObserveExchangeRound(1, 1000)
	d.ObserveExchangeRound(4, 50) // 5% of baseline
	if len(d.Recent()) != n {
		t.Fatalf("converging exchange fired: %+v", d.Recent())
	}
}

func TestWireErrorBurstFires(t *testing.T) {
	d, _ := newTestDetector()
	d.wireWindow = time.Hour
	err := errors.New("connection reset")
	d.ObserveWireError(nil) // nil errors don't count
	d.ObserveWireError(err)
	d.ObserveWireError(err)
	if len(d.Recent()) != 0 {
		t.Fatalf("fired below burst threshold: %+v", d.Recent())
	}
	d.ObserveWireError(err)
	if got := lastRule(t, d); got != RuleWireErrorBurst {
		t.Fatalf("rule = %s, want %s", got, RuleWireErrorBurst)
	}
	// The window resets after a firing: the next error alone is quiet.
	n := len(d.Recent())
	d.ObserveWireError(err)
	if len(d.Recent()) != n {
		t.Fatal("single error after burst fired again")
	}
}

func TestWireErrorBurstWindowExpiry(t *testing.T) {
	d, _ := newTestDetector()
	d.wireWindow = time.Nanosecond
	err := errors.New("timeout")
	for i := 0; i < 10; i++ {
		d.ObserveWireError(err)
		time.Sleep(time.Microsecond) // each error outlives the window
	}
	if len(d.Recent()) != 0 {
		t.Fatalf("stale errors burst: %+v", d.Recent())
	}
}

func TestAnomalySnapshotFuncOverridesFlight(t *testing.T) {
	d, _ := newTestDetector()
	fl := NewFlightRecorder(1, 16)
	d.AttachFlight(fl)
	d.SetSnapshotFunc(func() []byte { return []byte("cluster timeline\n") })
	d.ObserveRoundLag(1, []int64{1, 1, 1000})
	if got := string(d.LastSnapshot()); got != "cluster timeline\n" {
		t.Fatalf("snapshot = %q, want the snapshot func's output", got)
	}
	d.SetSnapshotFunc(nil)
	d.ObserveRoundLag(2, []int64{1, 1, 1000})
	if got := string(d.LastSnapshot()); got == "cluster timeline\n" {
		t.Fatal("nil SetSnapshotFunc did not restore the flight snapshot")
	}
}
