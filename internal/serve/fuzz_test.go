package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
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
