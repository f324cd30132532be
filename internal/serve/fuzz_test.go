package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
)

// fuzzServer is shared across fuzz iterations: the service is a
// long-lived stateful index, so hammering one instance with arbitrary
// requests — mutating writes included — is exactly its production
// shape.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		g := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}},
			graph.BuildOptions{NumVertices: 8})
		var err error
		fuzzSrv, err = Bootstrap(g, Config{})
		if err != nil {
			panic(err)
		}
	})
	return fuzzSrv
}

// FuzzServeHandlers throws arbitrary methods, request targets, and
// bodies at the full handler mux. The server must never panic, must
// answer every request with a defined status, and must keep its vertex
// set intact (handlers can merge components, never grow or shrink π).
// After every request the served sizes must still be exact: the roots'
// sizes sum to |V|, /census counts inc's components, and every
// /component answer agrees with the census.
func FuzzServeHandlers(f *testing.F) {
	f.Add("GET", "/connected?u=0&v=1", []byte(nil))
	f.Add("GET", "/connected?u=0&v=99", []byte(nil))
	f.Add("GET", "/component?v=2", []byte(nil))
	f.Add("GET", "/census?top=3", []byte(nil))
	f.Add("GET", "/census?top=-1", []byte(nil))
	f.Add("POST", "/edges", []byte(`{"u":2,"v":3}`))
	f.Add("POST", "/edges", []byte(`{"edges":[[0,5],[6,7]]}`))
	f.Add("POST", "/edges", []byte(`{"edges":[[0,99]]}`))
	f.Add("POST", "/edges", []byte(`{"u":1}`))
	f.Add("POST", "/edges", []byte(`not json`))
	f.Add("GET", "/stats", []byte(nil))
	f.Add("GET", "/metrics", []byte(nil))
	f.Add("GET", "/healthz", []byte(nil))
	f.Add("DELETE", "/edges", []byte(nil))
	f.Add("GET", "/nope", []byte(nil))
	f.Add("GET", "/connected?u=%zz", []byte(nil))
	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		srv := fuzzServer()
		// Constrain inputs to what a net/http server would actually hand
		// the mux: a valid method token and an origin-form target.
		if !validMethod(method) {
			t.Skip()
		}
		if !strings.HasPrefix(target, "/") {
			target = "/" + target
		}
		// NewRequest builds a request line from the target, so anything a
		// real connection would reject at parse time is out of scope.
		for _, r := range target {
			if r <= ' ' || r == 0x7f {
				t.Skip()
			}
		}
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip()
		}
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic

		res := rec.Result()
		if res.StatusCode < 200 || res.StatusCode > 599 {
			t.Fatalf("%s %q -> undefined status %d", method, target, res.StatusCode)
		}
		// Error bodies from our handlers are structured JSON.
		if res.StatusCode == http.StatusBadRequest {
			var e map[string]string
			if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("%s %q -> 400 without a JSON error body (decode err %v)", method, target, err)
			}
		}
		if srv.NumVertices() != 8 {
			t.Fatalf("%s %q changed the vertex set: |V| = %d", method, target, srv.NumVertices())
		}
		// Accepted edges only ever merge: 0–1–2 stays connected forever.
		if !srv.inc.Connected(0, 2) {
			t.Fatalf("%s %q split a component", method, target)
		}
		var census struct {
			Components int         `json:"components"`
			Top        []Component `json:"top"`
		}
		serveJSON(t, srv, "/census?top=8", &census)
		sizes := map[graph.V]int{}
		total := 0
		for _, c := range census.Top {
			sizes[c.Label] = c.Size
			total += c.Size
		}
		if total != 8 || census.Components != len(census.Top) || census.Components != srv.inc.NumComponents() {
			t.Fatalf("%s %q: /census = %+v (sizes sum to %d), inc has %d components",
				method, target, census, total, srv.inc.NumComponents())
		}
		for v := 0; v < 8; v++ {
			var c struct {
				Label graph.V `json:"label"`
				Size  int     `json:"size"`
			}
			serveJSON(t, srv, fmt.Sprintf("/component?v=%d", v), &c)
			if c.Label != srv.inc.Find(graph.V(v)) || c.Size != sizes[c.Label] {
				t.Fatalf("%s %q: /component?v=%d = %+v, census %v", method, target, v, c, census.Top)
			}
		}
	})
}

// serveJSON answers one GET in-process and decodes its 200 body.
func serveJSON(t *testing.T, h http.Handler, target string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", target, rec.Code)
	}
	if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
}

// validMethod mirrors net/http's token check: fuzz inputs with spaces
// or control bytes would be rejected by a real server before routing.
func validMethod(m string) bool {
	if m == "" {
		return false
	}
	for _, r := range m {
		if r <= ' ' || r >= 0x7f || strings.ContainsRune(`()<>@,;:\"/[]?={}`, r) {
			return false
		}
	}
	return true
}

// TestFuzzSeedsPass replays the handler seed corpus as a plain test so
// `go test` (no -fuzz flag) exercises every seed even on toolchains
// that skip seed execution, and so the shared server's terminal state
// is checked once against the incremental core directly.
func TestFuzzSeedsPass(t *testing.T) {
	srv := fuzzServer()
	for _, tc := range []struct{ method, target, body string }{
		{"GET", "/connected?u=0&v=1", ""},
		{"POST", "/edges", `{"u":3,"v":4}`},
		{"GET", "/census?top=100", ""},
		{"GET", "/stats", ""},
	} {
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s -> %d", tc.method, tc.target, rec.Code)
		}
	}
	if !srv.inc.Connected(3, 4) {
		t.Fatal("posted edge {3,4} not merged")
	}
	if _, err := core.RestoreIncremental(srv.inc.Snapshot(0)); err != nil {
		t.Fatalf("post-fuzz labels are not a valid incremental state: %v", err)
	}
}

// edgesRequest is the POST /edges body as encoding/json decoded it
// before the hand-written scanner: either a single edge {"u":1,"v":2}
// or a bulk batch {"edges":[[1,2],[3,4],...]}. A bulk edge decodes
// into a slice so a pair of the wrong length is caught.
type edgesRequest struct {
	U     *uint32    `json:"u"`
	V     *uint32    `json:"v"`
	Edges [][]uint32 `json:"edges"`
}

// referenceEdges is the body half of the encoding/json handler the
// scanner replaced, over n vertices: the status, the 400 or 413
// message, whether that message is one of the fixed ones rather than
// the decoder's, and on 200 the edges it would submit.
func referenceEdges(body []byte, n uint32) (code int, msg string, fixed bool, edges []graph.Edge) {
	var req edgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxEdgesBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		return code, "bad body: " + err.Error(), false, nil
	}
	switch {
	case req.Edges != nil:
		if req.U != nil || req.V != nil {
			return http.StatusBadRequest, `provide either "u"/"v" or "edges", not both`, true, nil
		}
		edges = make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			if len(e) != 2 {
				return http.StatusBadRequest, fmt.Sprintf("bad body: edges[%d] must be a [u,v] pair, got length %d", i, len(e)), true, nil
			}
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
	case req.U != nil && req.V != nil:
		edges = []graph.Edge{{U: *req.U, V: *req.V}}
	default:
		return http.StatusBadRequest, `provide "u" and "v", or "edges"`, true, nil
	}
	for _, e := range edges {
		if e.U >= n || e.V >= n {
			return http.StatusBadRequest, fmt.Sprintf("edge {%d,%d} out of range (|V|=%d)", e.U, e.V, n), true, nil
		}
	}
	return http.StatusOK, "", false, edges
}

// foldedKey reports whether body's top-level object has a key that
// encoding/json matches to "u", "v" or "edges" only after unescaping
// it or folding its case (bytes.EqualFold is its folding). The scanner
// refuses such keys with 400 by design.
func foldedKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		from := dec.InputOffset()
		tok, err := dec.Token()
		key, ok := tok.(string)
		if err != nil || !ok {
			return false
		}
		raw := bytes.TrimLeft(body[from:dec.InputOffset()], " \t\r\n,")
		raw = raw[1 : len(raw)-1] // the key between its quotes, as sent
		for _, name := range []string{"u", "v", "edges"} {
			if strings.EqualFold(key, name) && string(raw) != name {
				return true
			}
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return false
		}
	}
	return false
}

// recordingBackend accepts every write over the widest vertex range a
// 32-bit id allows and keeps the last edge list submitted.
type recordingBackend struct {
	submits int
	last    []graph.Edge
}

func (b *recordingBackend) NumVertices() int     { return math.MaxUint32 }
func (b *recordingBackend) EdgesAccepted() int64 { return 0 }
func (b *recordingBackend) Connected(u, v graph.V) (bool, error) {
	return u == v, nil
}
func (b *recordingBackend) Explain(u, v graph.V) (bool, []provenance.Hop, bool, error) {
	return u == v, nil, false, nil
}
func (b *recordingBackend) ComponentSizes(fn func(sizes []int32, edges int64)) error { return nil }
func (b *recordingBackend) StatsSections(body map[string]any)                        {}
func (b *recordingBackend) Health(body map[string]any) string                        { return "ok" }

func (b *recordingBackend) SubmitEdges(edges []graph.Edge) (Ack, error) {
	b.submits++
	b.last = edges
	return Ack{Accepted: len(edges), Merged: int64(len(edges) / 2), LSN: ackLSN(b.submits)}, nil
}

// ackLSN is the LSN recordingBackend acks its nth submission with: n on
// odd calls and 0 on even ones, so both ack shapes are checked.
func ackLSN(n int) uint64 { return uint64(n % 2 * n) }

// edgesBodySeeds are FuzzEdgesBody's seeds: the bad bodies of
// TestServeErrorPaths and cluster's TestHTTPSurfaceMatchesSingleNode,
// their writes, whitespace variants, null and repeated members, the
// coordinate bounds 2^32−1 and 2^32, numbers outside 0|[1-9][0-9]*,
// trailing bytes, and keys encoding/json folds (which are skipped).
var edgesBodySeeds = []string{
	`{"u":1}`,
	`{"u":1,"v":2,"edges":[[1,2]]}`,
	`{"edges":[[1,99]]}`,
	`not json`,
	`{"bogus":true}`,
	`{}`,
	`{"edges":[[1,600]]}`,
	`{"u":600,"v":0}`,
	`{"edges":[[5]]}`,
	`{"edges":[[1,2,3]]}`,
	`{"edges":[[]]}`,
	`{"u":0,"v":599}`,
	`{"edges":[[1,300],[2,400],[3,3],[61,122]]}`,
	`{"edges":[]}`,
	"",
	" \t\r\n{ \"u\" : 1 ,\n\"v\"\t:\r2 } \n",
	"{\"edges\" :[ [ 1 , 2 ] ,\n[3,4] ] }",
	"{\"edges\":[[1,2]\v]}",
	`null`,
	`{"u":null,"v":2}`,
	`{"u":1,"v":2,"edges":null}`,
	`{"edges":[null]}`,
	`{"edges":[[null,2]]}`,
	`{"u":1,"u":2,"v":3}`,
	`{"u":1,"u":null,"v":2}`,
	`{"edges":[[1,2]],"edges":[[3,4],[5,6]]}`,
	`{"edges":[[1,2],[3,4]],"edges":[[5,6]],"edges":[[7,8],[null,null]]}`,
	`{"edges":[[1,2,3]],"edges":[[null]],"edges":[[null,null]]}`,
	`{"edges":[[1,2]],"edges":[],"edges":[[null,null]]}`,
	`{"u":4294967295,"v":0}`,
	`{"u":4294967294,"v":4294967294}`,
	`{"u":4294967296,"v":0}`,
	`{"edges":[[0,4294967296]]}`,
	`{"edges":[[0,1,99999999999]]}`,
	`{"u":1,"v":2} trailing`,
	`{"u":1,"v":2}}`,
	`{"edges":[[1,2]]}[`,
	`null{"u":1,"v":2}`,
	`{"u":01,"v":2}`,
	`{"u":1.0,"v":2}`,
	`{"u":-1,"v":2}`,
	`{"u":1e2,"v":2}`,
	`{"u":"1","v":2}`,
	`{"u":1,"v":2,}`,
	`{"u":1 "v":2}`,
	`{"U":1,"v":2}`,
	`{"\u0075":1,"v":2}`,
	`{"edgeſ":[[1,2]]}`,
}

var (
	edgesFuzzOnce    sync.Once
	edgesFuzzBackend *recordingBackend
	edgesFuzzSurface *Surface
)

// FuzzEdgesBody holds POST /edges to the encoding/json decoder it
// replaced (referenceEdges). For every body the handler must answer
// the reference's status, submit exactly the reference's edge list on
// 200 and ack with json.Encoder's bytes for the ack map, and answer a
// fixed 400 with the reference's exact message (any other 400 keeps the
// "bad body: " prefix). The only bodies skipped have a key encoding/json
// matches only after unescaping or case folding (foldedKey).
func FuzzEdgesBody(f *testing.F) {
	for _, body := range edgesBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if foldedKey(body) {
			t.Skip()
		}
		edgesFuzzOnce.Do(func() {
			edgesFuzzBackend = &recordingBackend{}
			reg := obs.NewRegistry()
			edgesFuzzSurface = NewSurface(edgesFuzzBackend, reg, obs.NewAnomalyDetector(reg))
		})
		be := edgesFuzzBackend
		code, msg, fixed, edges := referenceEdges(body, math.MaxUint32)
		submits := be.submits
		rec := httptest.NewRecorder()
		edgesFuzzSurface.ServeHTTP(rec, httptest.NewRequest("POST", "/edges", bytes.NewReader(body)))
		if rec.Code != code {
			t.Fatalf("body %q: status %d (%s), encoding/json %d (%s)", body, rec.Code, rec.Body, code, msg)
		}
		if code != http.StatusOK {
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("body %q: error body %q: %v", body, rec.Body, err)
			}
			if fixed && e["error"] != msg || !fixed && !strings.HasPrefix(e["error"], "bad body: ") {
				t.Fatalf("body %q: error %q, encoding/json %q", body, e["error"], msg)
			}
			if be.submits != submits {
				t.Fatalf("body %q: answered %d but submitted %v", body, code, be.last)
			}
			return
		}
		if be.submits != submits+1 || !slices.Equal(be.last, edges) {
			t.Fatalf("body %q: submitted %v, encoding/json %v", body, be.last, edges)
		}
		want := map[string]any{"accepted": len(edges), "merged": int64(len(edges) / 2)}
		if lsn := ackLSN(be.submits); lsn > 0 {
			want["lsn"] = lsn
		}
		var ack bytes.Buffer
		json.NewEncoder(&ack).Encode(want)
		if rec.Body.String() != ack.String() {
			t.Fatalf("body %q: ack %q, json.Encoder %q", body, rec.Body, ack.String())
		}
	})
}
