package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/serve"
)

// pathEdges returns a deterministic 100-vertex path — the pinned
// workload of the replay tests (it crosses every shard boundary, so
// every topology needs at least one real exchange round).
func pathEdges() []graph.Edge {
	edges := make([]graph.Edge, 0, 99)
	for v := 0; v < 99; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	return edges
}

func pathGraph() *graph.CSR {
	return graph.Build(pathEdges(), graph.BuildOptions{NumVertices: 100})
}

// TestClusterTraceSpanAncestry loads a graph into a traced 3-shard
// cluster and requires every exchange-round RPC span to parent back,
// through its round and exchange grouping spans, to the originating
// request's root — and every shard-side server span to parent (across
// the wire) to the router client span that carried its trace context.
func TestClusterTraceSpanAncestry(t *testing.T) {
	tr := obs.NewWireTrace(0)
	l, err := StartLocal(100, 3, Config{Trace: tr, Parallelism: 1})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(pathGraph()); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}

	// Router-side spans only (nothing pulled from the shards yet), so
	// span ids are unambiguous.
	routerSpans := tr.Spans()
	byID := make(map[uint32]obs.WireSpan, len(routerSpans))
	var root obs.WireSpan
	for _, sp := range routerSpans {
		byID[sp.ID] = sp
		if sp.Parent == 0 && sp.Name == "load_graph" {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("no load_graph root span in %d router spans", len(routerSpans))
	}

	exchangeOps := map[string]bool{obs.WireOutbox: true, obs.WireIngest: true, obs.WireAbsorb: true}
	checked := 0
	for _, sp := range routerSpans {
		if !exchangeOps[sp.Name] {
			continue
		}
		checked++
		if sp.Trace != root.Trace {
			t.Fatalf("%s span %d on trace %d, want originating trace %d", sp.Name, sp.ID, sp.Trace, root.Trace)
		}
		if sp.Round < 1 {
			t.Fatalf("%s span %d has round %d, want >= 1", sp.Name, sp.ID, sp.Round)
		}
		rnd, ok := byID[sp.Parent]
		if !ok || rnd.Name != obs.WireRound {
			t.Fatalf("%s span %d parents to %+v, want a round span", sp.Name, sp.ID, rnd)
		}
		if rnd.Round != sp.Round {
			t.Fatalf("%s span in round %d hangs off round span %d", sp.Name, sp.Round, rnd.Round)
		}
		exc, ok := byID[rnd.Parent]
		if !ok || exc.Name != obs.WireExchange {
			t.Fatalf("round span %d parents to %+v, want the exchange span", rnd.ID, exc)
		}
		if got := byID[exc.Parent]; got.ID != root.ID {
			t.Fatalf("exchange span parents to %+v, want the load_graph root", got)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d exchange RPC spans recorded, want at least one outbox per shard", checked)
	}

	// Pull the shards' spans and check the cross-process edges: every
	// server op span must name a router client span (same trace, op,
	// shard) as its remote parent.
	if _, err := l.Router.ClusterTimeline(); err != nil {
		t.Fatalf("ClusterTimeline: %v", err)
	}
	servers := 0
	for _, sp := range tr.Spans() {
		if !sp.Remote {
			continue
		}
		servers++
		cl, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("server span %q (shard %d) parents to unknown router span %d", sp.Name, sp.Shard, sp.Parent)
		}
		if cl.Name != sp.Name || cl.Shard != sp.Shard || cl.Trace != sp.Trace {
			t.Fatalf("server span %q shard %d trace %d parents to client span %q shard %d trace %d",
				sp.Name, sp.Shard, sp.Trace, cl.Name, cl.Shard, cl.Trace)
		}
	}
	if servers == 0 {
		t.Fatal("no server-side spans reached the merged recorder")
	}
}

// runPinnedReplay executes the pinned deterministic workload on a fresh
// traced 3-shard cluster and returns the canonical merged timeline.
func runPinnedReplay(t *testing.T) []byte {
	t.Helper()
	tr := obs.NewWireTrace(0)
	l, err := StartLocal(100, 3, Config{Trace: tr, Parallelism: 1})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(pathGraph()); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if _, err := l.Router.Resolve(99); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	rows, err := l.Router.ClusterTimeline()
	if err != nil {
		t.Fatalf("ClusterTimeline: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteClusterTimeline(&buf, rows, true); err != nil {
		t.Fatalf("WriteClusterTimeline: %v", err)
	}
	return buf.Bytes()
}

// TestClusterTimelineGoldenReplay runs the pinned workload twice on
// fresh clusters and requires the canonical merged timelines to be
// byte-identical — trace ids are sequence counters, frame sizes are
// functions of the payloads, and parallelism 1 pins the merge counts,
// so nothing in the canonical columns may wander between replays.
func TestClusterTimelineGoldenReplay(t *testing.T) {
	a := runPinnedReplay(t)
	b := runPinnedReplay(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical cluster timeline differs across pinned replays:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	out := string(a)
	if !strings.Contains(out, "trace 1") || !strings.Contains(out, "trace 2") {
		t.Fatalf("timeline missing the load_graph and resolve traces:\n%s", out)
	}
	for _, want := range []string{obs.WireOutbox, obs.WireIngest, obs.WireQuery} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q lanes:\n%s", want, out)
		}
	}
}

// legacyWriteFrame is a frozen copy of the pre-tracing frame encoder.
// TestUntracedFrameBytes pins that the tracing-off path still emits
// these exact bytes, and the overhead guard times against it.
func legacyWriteFrame(w io.Writer, op byte, payload []byte) error {
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(1+len(payload)))
	hdr[4] = op
	_, err := w.Write(append(hdr, payload...))
	return err
}

// legacyReadFrame is the frozen pre-tracing frame decoder.
func legacyReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 1 || length > maxFrame {
		return 0, nil, io.ErrUnexpectedEOF
	}
	payload := make([]byte, length-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// TestUntracedFrameBytes pins the zero-cost contract of the trace
// extension: a frame written without a trace context is byte-identical
// to the pre-tracing protocol, and a traced frame round-trips its
// context exactly.
func TestUntracedFrameBytes(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, putU32(nil, 7), encodePairs(nil, []pair{{V: 3, Label: 9}, {V: 1, Label: 1}})}
	for _, op := range []byte{opEdges, opOutbox, opQuery, opError} {
		for _, p := range payloads {
			var got, want bytes.Buffer
			if err := writeFrame(&got, op, p); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			if err := legacyWriteFrame(&want, op, p); err != nil {
				t.Fatalf("legacyWriteFrame: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("op %d payload %v: untraced frame %x, legacy frame %x", op, p, got.Bytes(), want.Bytes())
			}
			gotOp, tc, gotPayload, err := readFrame(&got)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if gotOp != op || tc.active() || !bytes.Equal(gotPayload, p) && len(p) > 0 {
				t.Fatalf("untraced round-trip: op %d tc %+v payload %v", gotOp, tc, gotPayload)
			}
		}
	}

	// Traced round-trip: the extension rides the wire and decodes back.
	tc := traceCtx{trace: 42, parent: 7, flags: 1}
	var buf bytes.Buffer
	if err := writeFrameCtx(&buf, opIngest, tc, putU32(nil, 3)); err != nil {
		t.Fatalf("writeFrameCtx: %v", err)
	}
	if got, want := buf.Len(), 5+traceExtLen+4; got != want {
		t.Fatalf("traced frame is %d bytes, want %d", got, want)
	}
	op, gotTC, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame(traced): %v", err)
	}
	if op != opIngest || gotTC != tc || len(payload) != 4 {
		t.Fatalf("traced round-trip: op %d tc %+v payload %v", op, gotTC, payload)
	}
}

// TestShardWireSilentWhenUntraced pins the other half of the zero-cost
// contract end to end: with tracing off at the router, no frame carries
// the flag, so no shard records a single wire span.
func TestShardWireSilentWhenUntraced(t *testing.T) {
	l, err := StartLocal(100, 3, Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(pathGraph()); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if _, err := l.Router.Resolve(99); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for i, sh := range l.shards {
		if spans := sh.wire.Spans(); len(spans) != 0 {
			t.Fatalf("shard %d recorded %d wire spans with tracing off: %+v", i, len(spans), spans[0])
		}
	}
}

// TestUntracedFrameOverheadGuard times the trace-aware codec on the
// tracing-off path against the frozen legacy codec above — min-of-N
// interleaved, same methodology as TestNilObserverOverheadGuard. The
// inactive path is one branch on a zero struct, so it must stay within
// 2% of the pre-tracing code.
func TestUntracedFrameOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	payload := encodePairs(nil, make([]pair, 512))
	var buf bytes.Buffer
	const frames = 2000
	run := func() {
		for i := 0; i < frames; i++ {
			buf.Reset()
			writeFrame(&buf, opEdges, payload)
			readFrame(&buf)
		}
	}
	base := func() {
		for i := 0; i < frames; i++ {
			buf.Reset()
			legacyWriteFrame(&buf, opEdges, payload)
			legacyReadFrame(&buf)
		}
	}
	minOf := func(reps int, a, b func()) (minA, minB time.Duration) {
		minA, minB = time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			a()
			if d := time.Since(start); d < minA {
				minA = d
			}
			start = time.Now()
			b()
			if d := time.Since(start); d < minB {
				minB = d
			}
		}
		return minA, minB
	}
	run()
	base()
	reps := 20
	for attempt := 0; ; attempt++ {
		minRun, minBase := minOf(reps, run, base)
		ratio := float64(minRun) / float64(minBase)
		if ratio <= 1.02 {
			t.Logf("untraced frame overhead: %.2f%% (run %v vs baseline %v, %d reps)",
				(ratio-1)*100, minRun, minBase, reps)
			return
		}
		if attempt == 2 {
			minA, minB := minOf(reps, base, base)
			noise := float64(minA) / float64(minB)
			if noise < 1 {
				noise = 1 / noise
			}
			if noise-1 > 0.01 {
				t.Skipf("box too noisy to resolve the 2%% budget: baseline-vs-itself differs by %.2f%% (observed %.2f%%)",
					(noise-1)*100, (ratio-1)*100)
			}
			t.Fatalf("untraced frame codec is %.2f%% slower than the frozen legacy codec (%v vs %v after %d reps)",
				(ratio-1)*100, minRun, minBase, reps)
		}
		reps *= 2
	}
}

// TestShardErrorAttribution pins the error-wrapping satellite: a
// shard-side failure comes back naming the shard and the op that
// failed, so multi-shard log lines are attributable without guessing.
func TestShardErrorAttribution(t *testing.T) {
	l, err := StartLocal(100, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	conn, err := net.Dial("tcp", l.Addrs[1])
	if err != nil {
		t.Fatalf("dial shard 1: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, opQuery, putU32(nil, 5000)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	op, _, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if op != opError {
		t.Fatalf("out-of-range query answered with op %d, want opError", op)
	}
	if msg := string(payload); !strings.HasPrefix(msg, "shard 1: opQuery: ") {
		t.Fatalf("error %q does not carry the shard/op prefix", msg)
	}
}

// TestLeaveFailuresFireWireErrorBurst: a member that answers Leave's
// opLabels with opError fails each Leave, and three failed handoffs
// inside one second fire wire_error_burst on the router's /stats.
// Membership calls go through the router's one call path, so their
// failures reach the wire-error rule like an exchange RPC's do.
func TestLeaveFailuresFireWireErrorBurst(t *testing.T) {
	addr := stubShard(t, func(op byte, payload []byte) (byte, []byte) {
		if op == opLabels {
			return opError, []byte("shard 0: opLabels: refused")
		}
		return op, nil
	})
	r, err := NewRouter([]string{addr}, 10, Config{})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close(false)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := r.Leave(0); err == nil || !strings.Contains(err.Error(), "opLabels: refused") {
			t.Fatalf("Leave %d: err = %v, want the shard's opLabels error", i, err)
		}
	}
	if d := time.Since(start); d >= time.Second {
		t.Skipf("three Leave calls took %v, past the rule's one-second window", d)
	}
	srv := httptest.NewServer(r)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Anomalies struct {
			Recent []obs.AnomalyRecord `json:"recent"`
		} `json:"anomalies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	for _, rec := range stats.Anomalies.Recent {
		if rec.Rule == obs.RuleWireErrorBurst {
			return
		}
	}
	t.Fatalf("wire_error_burst did not fire; /stats anomalies.recent = %+v", stats.Anomalies.Recent)
}

// TestDebugClusterHTTP exercises the /debug/cluster surface: the merged
// timeline, the span and per-shard views, and the 404 when the router
// was built without tracing.
func TestDebugClusterHTTP(t *testing.T) {
	tr := obs.NewWireTrace(0)
	l, err := StartLocal(100, 3, Config{Trace: tr, Parallelism: 1})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(pathGraph()); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	srv := httptest.NewServer(l.Router)
	defer srv.Close()

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d; body: %s", path, resp.StatusCode, wantCode, body)
		}
		return string(body)
	}

	timeline := get("/debug/cluster", 200)
	if !strings.Contains(timeline, "trace 1") || !strings.Contains(timeline, obs.WireOutbox) {
		t.Fatalf("merged timeline missing trace/outbox lanes:\n%s", timeline)
	}
	canonical := get("/debug/cluster?canonical=1", 200)
	if strings.Contains(canonical, "srv_ns") {
		t.Fatalf("canonical timeline still shows wall-clock columns:\n%s", canonical)
	}
	spans := get("/debug/cluster?view=spans", 200)
	if !strings.Contains(spans, `"name":"outbox"`) {
		t.Fatalf("span view missing outbox spans:\n%s", spans)
	}
	get("/debug/cluster?view=flight&shard=0", 200)
	phases := get("/debug/cluster?view=phases&shard=1", 200)
	if !strings.HasPrefix(strings.TrimSpace(phases), "[") {
		t.Fatalf("phases view is not a JSON array: %s", phases)
	}
	get("/debug/cluster?view=bogus", 400)
	get("/debug/cluster?view=flight&shard=99", 404)
	get("/debug/cluster?view=flight", 400)

	// Tracing off: the endpoint refuses rather than serving an empty lie.
	plain, err := StartLocal(10, 1, Config{})
	if err != nil {
		t.Fatalf("StartLocal(plain): %v", err)
	}
	defer plain.Close()
	psrv := httptest.NewServer(plain.Router)
	defer psrv.Close()
	resp, err := psrv.Client().Get(psrv.URL + "/debug/cluster")
	if err != nil {
		t.Fatalf("GET plain /debug/cluster: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("untraced /debug/cluster = %d, want 404", resp.StatusCode)
	}
}

// faultProxy relays frames between the router and the shard at addr,
// answering a request with opError instead of relaying it whenever
// fail(op) says so. It stops when the test ends.
func faultProxy(t *testing.T, addr string, fail func(op byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				up, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer up.Close()
				for {
					op, tc, payload, err := readFrame(conn)
					if err != nil {
						return
					}
					if fail(op) {
						if writeFrame(conn, opError, []byte("injected failure")) != nil {
							return
						}
						continue
					}
					if writeFrameCtx(up, op, tc, payload) != nil {
						return
					}
					rop, rtc, resp, err := readFrame(up)
					if err != nil || writeFrameCtx(conn, rop, rtc, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRoundOneAsksOnlyUnscannedShards: in a traced 3-shard cluster, a
// write that merges on one shard opens exactly one round-1 outbox span,
// on that shard: no other member has merged since its last scan. An
// exchange that fails (here an injected opIngest error) can leave a
// member's merges unscanned, so the next exchange asks every shard in
// round 1, and the one after that is back to the merging shard alone.
func TestRoundOneAsksOnlyUnscannedShards(t *testing.T) {
	const n = 30 // the shards own [0,10), [10,20) and [20,30)
	tr := obs.NewWireTrace(0)
	l := &Local{}
	defer l.Close()
	addrs := make([]string, 3)
	for i := range addrs {
		addr, err := l.SpawnShard(1)
		if err != nil {
			t.Fatalf("SpawnShard: %v", err)
		}
		addrs[i] = addr
	}
	var failIngest atomic.Bool
	addrs[1] = faultProxy(t, addrs[1], func(op byte) bool { return op == opIngest && failIngest.Swap(false) })
	r, err := NewRouter(addrs, n, Config{Trace: tr, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	l.Router = r

	// asked writes e and returns the shards its exchange asked in round 1.
	asked := func(e graph.Edge) ([]int, error) {
		before := len(tr.Spans())
		_, err := r.AddEdges([]graph.Edge{e})
		var shards []int
		for _, sp := range tr.Spans()[before:] {
			if sp.Name == obs.WireOutbox && sp.Round == 1 {
				shards = append(shards, sp.Shard)
			}
		}
		slices.Sort(shards)
		return shards, err
	}
	if got, err := asked(graph.Edge{U: 0, V: 1}); err != nil || !slices.Equal(got, []int{0}) {
		t.Fatalf("write merging on shard 0 asked %v (err %v), want [0]", got, err)
	}
	// {2,15} is cut: shard 0 sends its opinion of 15 to shard 1, whose
	// ingest fails.
	failIngest.Store(true)
	if _, err := asked(graph.Edge{U: 2, V: 15}); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("write across the failing ingest: err = %v, want the injected failure", err)
	}
	if got, err := asked(graph.Edge{U: 3, V: 4}); err != nil || !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("first write after a failed exchange asked %v (err %v), want [0 1 2]", got, err)
	}
	if got, err := asked(graph.Edge{U: 5, V: 6}); err != nil || !slices.Equal(got, []int{0}) {
		t.Fatalf("second write after a failed exchange asked %v (err %v), want [0]", got, err)
	}
	labels, err := r.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	want := make([]graph.V, n)
	for v := range want {
		want[v] = graph.V(v)
	}
	want[1], want[4], want[6], want[15] = 0, 3, 5, 2
	if !slices.Equal(labels, want) {
		t.Fatalf("labels %v, want %v", labels, want)
	}
}

// TestFailedWriteNeverAnswersWrong: on a traced 3-shard cluster of 30
// vertices, {15,25} is acknowledged, then a write of {5,25} fails part
// way: shard 1's opIngest fails after round 1 has acked the opinion it
// carried, or shard 0's opEdges fails while shard 2 applies its ghost
// copy. Either way shard 2 holds 15 ~ 5 and its owner does not, so a
// read would answer the acknowledged pair as disconnected. Instead
// every read refuses with ErrUnsettled, /healthz reads degraded, and the
// next write, merging or not, runs a repair exchange whose round 1 asks
// every shard to resend every ref. After it the labels are exact: a
// serial oracle over every edge some shard applied.
func TestFailedWriteNeverAnswersWrong(t *testing.T) {
	const n = 30 // the shards own [0,10), [10,20) and [20,30)
	for _, fault := range []struct {
		name  string
		shard int
		op    byte
	}{
		{"ingest", 1, opIngest},
		{"edges", 0, opEdges},
	} {
		for _, repair := range []struct {
			name string
			edge graph.Edge
		}{
			{"merging", graph.Edge{U: 7, V: 8}},
			{"non-merging", graph.Edge{U: 15, V: 25}},
		} {
			t.Run(fault.name+"/"+repair.name, func(t *testing.T) {
				tr := obs.NewWireTrace(0)
				l := &Local{}
				defer l.Close()
				addrs := make([]string, 3)
				for i := range addrs {
					addr, err := l.SpawnShard(1)
					if err != nil {
						t.Fatalf("SpawnShard: %v", err)
					}
					addrs[i] = addr
				}
				var armed atomic.Bool
				addrs[fault.shard] = faultProxy(t, addrs[fault.shard], func(op byte) bool {
					return op == fault.op && armed.Swap(false)
				})
				r, err := NewRouter(addrs, n, Config{Trace: tr, Parallelism: 1})
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				l.Router = r

				if _, err := r.AddEdges([]graph.Edge{{U: 15, V: 25}}); err != nil {
					t.Fatalf("AddEdges({15,25}): %v", err)
				}
				armed.Store(true)
				if _, err := r.AddEdges([]graph.Edge{{U: 5, V: 25}}); err == nil || !strings.Contains(err.Error(), "injected failure") {
					t.Fatalf("AddEdges({5,25}): err = %v, want the injected failure", err)
				}
				if c, err := r.Connected(15, 25); !errors.Is(err, ErrUnsettled) {
					t.Fatalf("Connected(15,25) after the failed write = %v, %v; want ErrUnsettled", c, err)
				}
				var se *serve.StatusError
				if _, err := r.Resolve(25); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
					t.Fatalf("Resolve(25): err = %v, want a 503", err)
				}
				if _, _, _, err := r.Explain(15, 25); !errors.Is(err, ErrUnsettled) {
					t.Fatalf("Explain(15,25): err = %v, want ErrUnsettled", err)
				}
				if _, err := r.GlobalLabels(); !errors.Is(err, ErrUnsettled) {
					t.Fatalf("GlobalLabels: err = %v, want ErrUnsettled", err)
				}
				if err := r.ComponentSizes(func([]int32, int64) {}); !errors.Is(err, ErrUnsettled) {
					t.Fatalf("ComponentSizes: err = %v, want ErrUnsettled", err)
				}
				if status := r.Health(map[string]any{}); status != "degraded" {
					t.Fatalf("health while unsettled = %q, want degraded", status)
				}

				before := len(tr.Spans())
				if _, err := r.AddEdges([]graph.Edge{repair.edge}); err != nil {
					t.Fatalf("repair write %v: %v", repair.edge, err)
				}
				var asked []int
				for _, sp := range tr.Spans()[before:] {
					if sp.Name == obs.WireOutbox && sp.Round == 1 {
						asked = append(asked, sp.Shard)
					}
				}
				slices.Sort(asked)
				if !slices.Equal(asked, []int{0, 1, 2}) {
					t.Fatalf("repair round 1 asked shards %v, want [0 1 2]", asked)
				}
				if c, err := r.Connected(15, 25); err != nil || !c {
					t.Fatalf("Connected(15,25) after the repair = %v, %v; want true", c, err)
				}
				labels, err := r.GlobalLabels()
				if err != nil {
					t.Fatalf("GlobalLabels after the repair: %v", err)
				}
				applied := []graph.Edge{{U: 15, V: 25}, {U: 5, V: 25}, repair.edge}
				if want := canonical(graph.Build(applied, graph.BuildOptions{NumVertices: n})); !slices.Equal(labels, want) {
					t.Fatalf("labels after the repair\n got %v\nwant %v", labels, want)
				}
				if status := r.Health(map[string]any{}); status != "ok" {
					t.Fatalf("health after the repair = %q, want ok", status)
				}
			})
		}
	}
}
