package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/wal"
)

// postEdges POSTs a bulk edge body and decodes the response.
func postEdges(t *testing.T, client *http.Client, url string, edges []graph.Edge) (accepted, merged int, status int) {
	t.Helper()
	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{e.U, e.V}
	}
	body, err := json.Marshal(map[string]any{"edges": pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, resp.StatusCode
	}
	var out struct {
		Accepted int `json:"accepted"`
		Merged   int `json:"merged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Accepted, out.Merged, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// unionFind is the serial oracle the acceptance criteria call for.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// TestServeEndToEnd is the acceptance e2e: bootstrap a seeded kron
// graph, stream a seeded edge set via POST /edges from 8 concurrent
// clients, and verify every /connected and /census answer against a
// serial union-find over the union of initial + streamed edges.
func TestServeEndToEnd(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 99)
	n := g.NumVertices()
	srv, err := Bootstrap(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A seeded extra edge stream, disjoint from nothing in particular —
	// random pairs exercise both merging and redundant inserts.
	rng := rand.New(rand.NewSource(7))
	streamed := make([]graph.Edge, 4000)
	for i := range streamed {
		streamed[i] = graph.Edge{U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))}
	}

	const clients = 8
	var wg sync.WaitGroup
	per := len(streamed) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			chunk := streamed[c*per : (c+1)*per]
			// Mixed body sizes: singles and small bulks.
			for lo := 0; lo < len(chunk); {
				hi := lo + 1 + c%7
				if hi > len(chunk) {
					hi = len(chunk)
				}
				accepted, _, status := postEdges(t, client, ts.URL, chunk[lo:hi])
				if status != http.StatusOK || accepted != hi-lo {
					t.Errorf("client %d: status=%d accepted=%d want %d", c, status, accepted, hi-lo)
					return
				}
				lo = hi
			}
		}(c)
	}
	wg.Wait()

	// Oracle over the union of initial and streamed edges.
	uf := newUnionFind(n)
	for _, e := range g.Edges() {
		uf.union(int(e.U), int(e.V))
	}
	for _, e := range streamed {
		uf.union(int(e.U), int(e.V))
	}

	// Every /connected answer must match the oracle.
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		var out struct {
			Connected bool `json:"connected"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/connected?u=%d&v=%d", ts.URL, u, v), &out); code != http.StatusOK {
			t.Fatalf("connected status %d", code)
		}
		if want := uf.find(u) == uf.find(v); out.Connected != want {
			t.Fatalf("connected(%d,%d) = %v, oracle %v", u, v, out.Connected, want)
		}
	}
	// Endpoints of every streamed edge must read as connected.
	for _, e := range streamed[:500] {
		var out struct {
			Connected bool `json:"connected"`
		}
		getJSON(t, fmt.Sprintf("%s/connected?u=%d&v=%d", ts.URL, e.U, e.V), &out)
		if !out.Connected {
			t.Fatalf("streamed edge {%d,%d} not connected", e.U, e.V)
		}
	}

	// The /census must match the oracle exactly (sizes and count).
	oracleSizes := map[int]int{}
	for v := 0; v < n; v++ {
		oracleSizes[uf.find(v)]++
	}
	var census struct {
		Vertices   int         `json:"vertices"`
		Components int         `json:"components"`
		Edges      int64       `json:"edges"`
		Top        []Component `json:"top"`
	}
	if code := getJSON(t, ts.URL+"/census?top=1000000", &census); code != http.StatusOK {
		t.Fatalf("census status %d", code)
	}
	if census.Vertices != n {
		t.Fatalf("census vertices = %d, want %d", census.Vertices, n)
	}
	if census.Components != len(oracleSizes) {
		t.Fatalf("census components = %d, oracle %d", census.Components, len(oracleSizes))
	}
	if want := g.NumEdges() + int64(len(streamed)); census.Edges != want {
		t.Fatalf("census edges = %d, want %d", census.Edges, want)
	}
	gotSizes := map[int]int{} // size -> multiplicity
	for _, c := range census.Top {
		gotSizes[c.Size]++
	}
	wantSizes := map[int]int{}
	for _, s := range oracleSizes {
		wantSizes[s]++
	}
	for s, m := range wantSizes {
		if gotSizes[s] != m {
			t.Fatalf("census has %d components of size %d, oracle %d", gotSizes[s], s, m)
		}
	}

	// /component sizes agree with the oracle too.
	for i := 0; i < 200; i++ {
		v := rng.Intn(n)
		var out struct {
			Size int `json:"size"`
		}
		getJSON(t, fmt.Sprintf("%s/component?v=%d", ts.URL, v), &out)
		if want := oracleSizes[uf.find(v)]; out.Size != want {
			t.Fatalf("component(%d) size = %d, oracle %d", v, out.Size, want)
		}
	}
}

// TestServeGracefulDrain verifies the shutdown contract: every edge a
// client got a 200 for is reflected in the final state, even when Close
// races the stream; late writes get 503, never silent loss.
func TestServeGracefulDrain(t *testing.T) {
	const n = 5000
	srv := New(core.NewIncremental(n), 0, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(31))
	var mu sync.Mutex
	var acked []graph.Edge

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			local := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 200; i++ {
				e := graph.Edge{U: graph.V(local.Intn(n)), V: graph.V(local.Intn(n))}
				accepted, _, status := postEdges(t, client, ts.URL, []graph.Edge{e})
				if status == http.StatusServiceUnavailable {
					return // draining: rejection is the correct outcome
				}
				if status != http.StatusOK || accepted != 1 {
					t.Errorf("client %d: status %d accepted %d", c, status, accepted)
					return
				}
				mu.Lock()
				acked = append(acked, e)
				mu.Unlock()
			}
		}(c)
	}
	// Let the stream run briefly, then close mid-flight.
	time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
	srv.Close()
	wg.Wait()

	// Every acknowledged edge must be connected in the drained state.
	for _, e := range acked {
		if e.U == e.V {
			continue
		}
		var out struct {
			Connected bool `json:"connected"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/connected?u=%d&v=%d", ts.URL, e.U, e.V), &out); code != http.StatusOK {
			t.Fatalf("connected status %d after drain", code)
		}
		if !out.Connected {
			t.Fatalf("acked edge {%d,%d} lost in shutdown", e.U, e.V)
		}
	}
	// The final snapshot's edge counter covers exactly the acked edges.
	if got, want := srv.EdgesAccepted(), int64(len(acked)); got != want {
		t.Fatalf("edges accepted = %d, want %d", got, want)
	}
	// Writes after Close are refused, not lost.
	_, _, status := postEdges(t, &http.Client{}, ts.URL, []graph.Edge{{U: 1, V: 2}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-Close write got %d, want 503", status)
	}
	srv.Close() // idempotent
}

// TestServeSnapshotPersistence: save a served graph, restore it, and
// check the restored server answers identically and keeps streaming.
func TestServeSnapshotPersistence(t *testing.T) {
	g := gen.URandDegree(3000, 8, 13)
	srv, err := Bootstrap(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	extra := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 9}}
	ts := httptest.NewServer(srv)
	accepted, _, status := postEdges(t, &http.Client{}, ts.URL, extra)
	if status != http.StatusOK || accepted != len(extra) {
		t.Fatalf("stream failed: %d/%d", status, accepted)
	}
	ts.Close()
	srv.Close()

	path := filepath.Join(t.TempDir(), "pi.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.EdgesAccepted() != srv.EdgesAccepted() {
		t.Fatalf("restored edges = %d, want %d", restored.EdgesAccepted(), srv.EdgesAccepted())
	}
	if restored.NumComponents() != srv.NumComponents() {
		t.Fatalf("restored components = %d, want %d", restored.NumComponents(), srv.NumComponents())
	}
	a, b := srv.Refresh().Labels, restored.Refresh().Labels
	if !slices.Equal(a, b) {
		t.Fatal("restored labels differ from the saved server's")
	}
}

func TestServeErrorPaths(t *testing.T) {
	srv := New(core.NewIncremental(10), 0, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, url := range []string{
		"/connected",           // missing params
		"/connected?u=1",       // missing v
		"/connected?u=1&v=999", // out of range
		"/connected?u=-1&v=2",  // not a uint
		"/component?v=10",      // out of range
		"/census?top=-1",       // bad top
	} {
		var out map[string]any
		if code := getJSON(t, ts.URL+url, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, code)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges status %d, want 405", resp.StatusCode)
	}

	// Bad bodies.
	for _, body := range []string{
		`{"u":1}`,                       // missing v
		`{"u":1,"v":2,"edges":[[1,2]]}`, // both forms
		`{"edges":[[1,99]]}`,            // out of range
		`not json`,
		`{"bogus":true}`,
	} {
		resp, err := http.Post(ts.URL+"/edges", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz code=%d body=%v", code, health)
	}
}

// syncHookFS is the real filesystem with hook run before every segment
// fsync; an error from hook fails that fsync.
type syncHookFS struct {
	wal.FS
	hook func() error
}

func (fs syncHookFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	return hookFile{f, fs.hook}, err
}

func (fs syncHookFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := fs.FS.OpenAppend(name, size)
	return hookFile{f, fs.hook}, err
}

type hookFile struct {
	wal.File
	hook func() error
}

func (f hookFile) Sync() error {
	if err := f.hook(); err != nil {
		return err
	}
	return f.File.Sync()
}

// openHookedWAL opens a fresh log in a temporary directory whose
// segment fsyncs run hook first.
func openHookedWAL(t *testing.T, hook func() error) (*wal.Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, 0, nil, wal.Options{FS: syncHookFS{wal.OSFS, hook}})
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

// edgeAck is one POST /edges outcome.
type edgeAck struct {
	status int
	lsn    uint64
	err    error
}

// postAck POSTs one edge and reports the status and the ack's LSN. It
// calls no t method, so any goroutine may use it.
func postAck(url string, u, v int) edgeAck {
	resp, err := http.Post(url+"/edges", "application/json",
		strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v)))
	if err != nil {
		return edgeAck{err: err}
	}
	defer resp.Body.Close()
	var body struct {
		LSN uint64 `json:"lsn"`
	}
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&body)
	}
	return edgeAck{status: resp.StatusCode, lsn: body.LSN, err: err}
}

// TestServeStatsAndBatching checks the /stats counter set and that the
// write coalescer is group commit without a timer: posts that arrive
// while a flush is in its fsync queue up and go out together in the
// next flush, and no post is answered before the fsync that covers it.
func TestServeStatsAndBatching(t *testing.T) {
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	l, _ := openHookedWAL(t, func() error {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-release
		return nil
	})
	srv := New(core.NewIncremental(1000), 0, Config{WAL: l})
	defer srv.Close()
	defer open() // before Close: Close waits on the parked flush
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const posts = 16
	acks := make(chan edgeAck, posts)
	go func() { acks <- postAck(ts.URL, 0, 1) }()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the first post's flush never reached fsync")
	}
	for i := 1; i < posts; i++ {
		go func(i int) { acks <- postAck(ts.URL, i, i+1) }(i)
	}
	for deadline := time.Now().Add(5 * time.Second); len(srv.batcher.submit) < posts-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d posts queued behind the parked flush", len(srv.batcher.submit), posts-1)
		}
		time.Sleep(time.Millisecond)
	}
	if len(acks) != 0 {
		t.Fatalf("%d posts answered while the fsync covering them was held", len(acks))
	}
	open()
	var lsns []uint64
	for i := 0; i < posts; i++ {
		a := <-acks
		if a.err != nil || a.status != http.StatusOK || a.lsn == 0 {
			t.Fatalf("post: status %d lsn %d err %v", a.status, a.lsn, a.err)
		}
		lsns = append(lsns, a.lsn)
	}

	var out struct {
		EdgesAccepted int64 `json:"edges_accepted"`
		Requests      struct {
			Edges int64 `json:"edges"`
		} `json:"requests"`
		Batching struct {
			Batches      int64   `json:"batches"`
			BatchedEdges int64   `json:"batched_edges"`
			Merges       int64   `json:"merges"`
			AvgBatch     float64 `json:"avg_batch"`
		} `json:"batching"`
		WriteLatency struct {
			Count int64 `json:"count"`
		} `json:"write_latency"`
		WAL struct {
			DurableLSN uint64 `json:"durable_lsn"`
		} `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.EdgesAccepted != posts || out.Batching.BatchedEdges != posts {
		t.Fatalf("accepted=%d batched=%d, want %d", out.EdgesAccepted, out.Batching.BatchedEdges, posts)
	}
	if out.Requests.Edges != posts || out.WriteLatency.Count != posts {
		t.Fatalf("edge requests=%d latencies=%d, want %d", out.Requests.Edges, out.WriteLatency.Count, posts)
	}
	if out.Batching.Merges != posts { // a path: every edge merges
		t.Fatalf("merges = %d, want %d", out.Batching.Merges, posts)
	}
	if out.Batching.Batches != 2 {
		t.Fatalf("batches = %d, want 2: the first post alone, then the %d queued behind its fsync",
			out.Batching.Batches, posts-1)
	}
	for _, lsn := range lsns {
		if lsn > out.WAL.DurableLSN {
			t.Fatalf("ack at lsn %d, but the durable lsn is %d", lsn, out.WAL.DurableLSN)
		}
	}
}

// TestWALFailureStopsWrites: once a WAL fsync fails, the server is
// fail-stop. The failed batch and every later write answer 500 although
// the filesystem works again, none of their edges is applied, /stats
// and /healthz report the failure, and a restart from the log replays
// exactly the acknowledged edges.
func TestWALFailureStopsWrites(t *testing.T) {
	var failNext atomic.Bool
	l, dir := openHookedWAL(t, func() error {
		if failNext.CompareAndSwap(true, false) {
			return errors.New("injected fsync failure")
		}
		return nil
	})
	srv := New(core.NewIncremental(100), 0, Config{WAL: l})
	ts := httptest.NewServer(srv)

	if a := postAck(ts.URL, 0, 1); a.err != nil || a.status != http.StatusOK || a.lsn != 1 {
		t.Fatalf("first post: status %d lsn %d err %v", a.status, a.lsn, a.err)
	}
	failNext.Store(true)
	refused := [][2]int{{2, 3}, {4, 5}, {6, 7}}
	for _, e := range refused {
		if a := postAck(ts.URL, e[0], e[1]); a.err != nil || a.status != http.StatusInternalServerError {
			t.Fatalf("post %v after the failed fsync: status %d err %v, want 500", e, a.status, a.err)
		}
	}
	for _, e := range append([][2]int{{0, 1}}, refused...) {
		var out struct {
			Connected bool `json:"connected"`
		}
		getJSON(t, fmt.Sprintf("%s/connected?u=%d&v=%d", ts.URL, e[0], e[1]), &out)
		if want := e[0] == 0; out.Connected != want {
			t.Fatalf("/connected %v = %v, want %v", e, out.Connected, want)
		}
	}
	var stats struct {
		EdgesAccepted int64 `json:"edges_accepted"`
		WAL           struct {
			FailedBatches int64   `json:"failed_batches"`
			Error         *string `json:"error"`
		} `json:"wal"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.EdgesAccepted != 1 || stats.WAL.FailedBatches != int64(len(refused)) ||
		stats.WAL.Error == nil || !strings.Contains(*stats.WAL.Error, "injected fsync failure") {
		t.Fatalf("/stats after the failure: %+v", stats)
	}
	var health struct {
		Status string `json:"status"`
	}
	if getJSON(t, ts.URL+"/healthz", &health); health.Status != "degraded" {
		t.Fatalf("/healthz status %q, want degraded", health.Status)
	}
	ts.Close()
	srv.Close()

	restarted, err := Open(core.NewIncremental(100), 0, Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.WALReplay(); st.Records != 1 || st.Tail != "" || st.Diverged {
		t.Fatalf("restart replayed %+v, want exactly the acked record", st)
	}
	if !restarted.inc.Connected(0, 1) {
		t.Fatal("acked edge {0,1} lost across restart")
	}
	for _, e := range refused {
		if restarted.inc.Connected(graph.V(e[0]), graph.V(e[1])) {
			t.Fatalf("refused edge %v applied after restart", e)
		}
	}
}

// TestServeEdgesBodyLimit: a POST /edges body past maxEdgesBody is
// refused with 413 and a JSON error before anything is enqueued.
func TestServeEdgesBodyLimit(t *testing.T) {
	srv := New(core.NewIncremental(16), 0, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"edges":[` + strings.Repeat("[0,1],", maxEdgesBody/6) + `[0,1]]}`
	resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /edges: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("oversized POST /edges: no JSON error body (decode err %v)", err)
	}
	if srv.EdgesAccepted() != 0 || srv.batcher.batches.Load() != 0 || srv.inc.Connected(0, 1) {
		t.Fatal("oversized body was enqueued or applied")
	}
}

// TestAckMatchesEncoder: the POST /edges ack is written without
// reflection, byte for byte what json.Encoder wrote for the ack map,
// with and without an LSN.
func TestAckMatchesEncoder(t *testing.T) {
	for _, ack := range []Ack{
		{},
		{Accepted: 8, Merged: 3},
		{Accepted: 1, Merged: 1, LSN: 1},
		{Accepted: 8192, Merged: 8192, LSN: 1<<64 - 1},
	} {
		body := map[string]any{"accepted": ack.Accepted, "merged": ack.Merged}
		if ack.LSN > 0 {
			body["lsn"] = ack.LSN
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(body)
		if got := appendAck(nil, ack); string(got) != want.String() {
			t.Fatalf("ack %+v: %q, json.Encoder %q", ack, got, want.String())
		}
	}
}

// TestEdgesBodyContract pins the two places POST /edges parts from the
// encoding/json decoder it replaced, which FuzzEdgesBody skips: keys
// are exact (the decoder also matched "U" and the escaped "\u0075"),
// and a body over maxEdgesBody is a 413 even when a whole object comes
// first (the decoder stopped reading after it and answered 200).
func TestEdgesBodyContract(t *testing.T) {
	srv := New(core.NewIncremental(16), 0, Config{})
	defer srv.Close()
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"u":0,"v":1}`, http.StatusOK},
		{`{"U":0,"v":1}`, http.StatusBadRequest},
		{`{"\u0075":0,"v":1}`, http.StatusBadRequest},
		{`{"u":0,"v":1} trailing`, http.StatusOK},
		{`{"u":0,"v":1}` + strings.Repeat(" ", maxEdgesBody), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/edges", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("POST /edges %.40q: status %d, want %d (%s)", tc.body, rec.Code, tc.code, rec.Body)
		}
	}
}

// TestStatsRequestsMatchMetrics: /stats "requests" lists every handler
// label of afforest_http_requests_total with the value /metrics shows.
func TestStatsRequestsMatchMetrics(t *testing.T) {
	srv := New(core.NewIncremental(16), 0, Config{Provenance: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postEdges(t, &http.Client{}, ts.URL, []graph.Edge{{U: 0, V: 1}})
	for _, path := range []string{"/connected?u=0&v=1", "/component?v=1", "/census", "/explain?u=0&v=1",
		"/history?v=1", "/healthz", "/stats", "/metrics", "/events"} {
		// Each answer's headers are enough; /events would stream forever.
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		cancel()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var handler string
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), `afforest_http_requests_total{handler=%q} %d`, &handler, &v); err == nil {
			scraped[handler] = v
		}
	}
	resp.Body.Close()
	var stats struct {
		Requests map[string]int64 `json:"requests"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	scraped["stats"]++ // this /stats request counts itself
	if len(scraped) != 10 {
		t.Fatalf("scraped %d handler labels, want 10: %v", len(scraped), scraped)
	}
	for h, v := range scraped {
		got, ok := stats.Requests[h]
		if !ok || got != v || v == 0 {
			t.Errorf("handler %q: /stats requests %d (listed %v), /metrics %d", h, got, ok, v)
		}
	}
}

// TestServeReadsAreFresh: an acknowledged write shows in /component and
// /census at once, with no Refresh call and no background refresh.
func TestServeReadsAreFresh(t *testing.T) {
	srv := New(core.NewIncremental(100), 0, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type component struct {
		Label graph.V `json:"label"`
		Size  int     `json:"size"`
	}
	type census struct {
		Components int         `json:"components"`
		Top        []Component `json:"top"`
	}
	for i, e := range []graph.Edge{{U: 7, V: 9}, {U: 9, V: 3}, {U: 50, V: 51}, {U: 51, V: 3}} {
		if _, _, status := postEdges(t, &http.Client{}, ts.URL, []graph.Edge{e}); status != http.StatusOK {
			t.Fatalf("POST /edges status %d", status)
		}
		var c component
		getJSON(t, fmt.Sprintf("%s/component?v=%d", ts.URL, e.V), &c)
		var cs census
		getJSON(t, ts.URL+"/census?top=1", &cs)
		wantSize := []int{2, 3, 2, 5}[i]
		wantLabel := []graph.V{7, 3, 50, 3}[i]
		if c.Size != wantSize || c.Label != wantLabel {
			t.Fatalf("after edge %v: /component?v=%d = %+v, want label %d size %d", e, e.V, c, wantLabel, wantSize)
		}
		top := Component{Label: wantLabel, Size: wantSize}
		if i == 2 {
			top = Component{Label: 3, Size: 3}
		}
		if cs.Components != 100-(i+1) || len(cs.Top) != 1 || cs.Top[0] != top {
			t.Fatalf("after edge %v: /census?top=1 = %+v, want %d components, top %+v", e, cs, 100-(i+1), top)
		}
	}
}

// TestConfigKnobBudget pins the exported Config fields to a literal
// list, the way core's TestOptionsKnobBudget pins Options: a new knob
// has to edit this list in the same change, so adding one is always
// visible in review.
func TestConfigKnobBudget(t *testing.T) {
	want := []string{
		"Parallelism", "Flight", "WALDir",
		"WALSegmentBytes", "WALNoSync", "WAL",
		"Provenance",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config fields = %v, want %v", got, want)
	}
}
