package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"sync"
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/serve"
)

// answer sends one request through h in-process.
func answer(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestHTTPSurfaceMatchesSingleNode runs one request script against a
// single-node server and a 3-shard loopback cluster holding the same
// multi-component graph. Both answer through serve's Surface and both
// label a component by its minimum (Theorem 1 makes the partition the
// same), so statuses and JSON bodies must be byte-identical: reads,
// every 4xx and 413, and the reads after the same writes.
func TestHTTPSurfaceMatchesSingleNode(t *testing.T) {
	g := gen.URandComponents(600, 4, 0.1, 5)
	n := g.NumVertices()
	single, err := serve.Bootstrap(g, serve.Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	defer single.Close()
	l, err := StartLocal(n, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	components := single.NumComponents()
	if components < 2 {
		t.Fatalf("test graph has %d components, want several", components)
	}

	same := func(method, target, body string) *httptest.ResponseRecorder {
		t.Helper()
		a := answer(single, method, target, body)
		b := answer(l.Router, method, target, body)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s %s: single node %d %s, cluster %d %s",
				method, target, a.Code, a.Body, b.Code, b.Body)
		}
		return a
	}
	rng := rand.New(rand.NewSource(3))
	reads := func() {
		t.Helper()
		for i := 0; i < 40; i++ {
			same("GET", fmt.Sprintf("/connected?u=%d&v=%d", rng.Intn(n), rng.Intn(n)), "")
		}
		same("GET", "/connected?u=0&v=0", "")
		same("GET", "/census", "")
		for _, k := range []int{0, 1, 5, components + 7} {
			same("GET", fmt.Sprintf("/census?top=%d", k), "")
		}
	}
	reads()

	for _, target := range []string{
		"/connected", "/connected?u=1", "/connected?v=1",
		"/connected?u=abc&v=1", "/connected?u=-1&v=2", "/connected?u=1&v=1.5",
		fmt.Sprintf("/connected?u=1&v=%d", n), "/connected?u=4294967296&v=1",
		"/census?top=-1", "/census?top=x",
		"/explain?u=x&v=1", fmt.Sprintf("/explain?u=1&v=%d", n),
	} {
		if rec := same("GET", target, ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", target, rec.Code)
		}
	}
	for _, body := range []string{
		`{"u":1}`,
		`{}`,
		`{"u":1,"v":2,"edges":[[1,2]]}`,
		fmt.Sprintf(`{"edges":[[1,%d]]}`, n),
		fmt.Sprintf(`{"u":%d,"v":0}`, n),
		`not json`,
		`{"bogus":true}`,
		`{"edges":[[5]]}`,
		`{"edges":[[1,2,3]]}`,
		`{"edges":[[]]}`,
	} {
		if rec := same("POST", "/edges", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /edges %s: status %d, want 400", body, rec.Code)
		}
	}
	huge := `{"edges":[` + strings.Repeat("[0,1],", (4<<20)/6) + `[0,1]]}`
	if rec := same("POST", "/edges", huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /edges: status %d, want 413", rec.Code)
	}
	same("GET", "/edges", "")

	// The same writes on both sides: only "accepted" must agree, since
	// the cluster counts merges on each edge's primary owner.
	for _, body := range []string{
		`{"u":0,"v":599}`,
		`{"edges":[[1,300],[2,400],[3,3],[61,122]]}`,
		`{"edges":[]}`,
	} {
		var a, b struct {
			Accepted int `json:"accepted"`
		}
		ra, rb := answer(single, "POST", "/edges", body), answer(l.Router, "POST", "/edges", body)
		json.Unmarshal(ra.Body.Bytes(), &a)
		json.Unmarshal(rb.Body.Bytes(), &b)
		if ra.Code != http.StatusOK || rb.Code != http.StatusOK || a != b {
			t.Fatalf("POST /edges %s: single node %d %s, cluster %d %s", body, ra.Code, ra.Body, rb.Code, rb.Body)
		}
	}
	components = single.NumComponents()
	reads()

	// Neither side records provenance: a connected pair's /explain is the
	// single node's 404 on both.
	if rec := same("GET", "/explain?u=0&v=599", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /explain without provenance: status %d, want 404", rec.Code)
	}
}

// TestClusterRefusesSingleNodeRoutes: the routes only a single node
// serves answer 501 with a JSON error, on any method, never a text 404.
func TestClusterRefusesSingleNodeRoutes(t *testing.T) {
	l, err := StartLocal(16, 2, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	for _, target := range []string{"/component?v=1", "/events", "/history?v=1", "/debug/provenance?canonical=1"} {
		for _, method := range []string{"GET", "POST"} {
			rec := answer(l.Router, method, target, "")
			var e map[string]string
			if rec.Code != http.StatusNotImplemented || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" {
				t.Fatalf("%s %s: %d %q %s, want 501 with a JSON error",
					method, target, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
			}
		}
	}
}

// fuzzLocal is one loopback cluster shared across fuzz iterations, the
// router's production shape: a long-lived index taking arbitrary
// requests, writes included.
var (
	fuzzOnce  sync.Once
	fuzzLocal *Local
)

func fuzzCluster() *Local {
	fuzzOnce.Do(func() {
		g := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}},
			graph.BuildOptions{NumVertices: 8})
		l, err := StartLocal(8, 3, Config{})
		if err != nil {
			panic(err)
		}
		if err := l.Router.LoadGraph(g); err != nil {
			panic(err)
		}
		fuzzLocal = l
	})
	return fuzzLocal
}

// FuzzRouterHandlers throws arbitrary methods, targets and bodies at
// the router behind serve's Surface. It must never panic and must
// answer with a defined status; the vertex set never changes, accepted
// edges only merge, and /census counts exactly the distinct labels of
// GlobalLabels. Membership routes are out of scope: a join dials the
// address in its query.
func FuzzRouterHandlers(f *testing.F) {
	// FuzzServeHandlers' seeds, then the routes the cluster refuses.
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
	f.Add("GET", "/events", []byte(nil))
	f.Add("GET", "/history?v=1", []byte(nil))
	f.Add("GET", "/debug/provenance", []byte(nil))
	f.Add("POST", "/component?v=0", []byte(nil))
	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		l := fuzzCluster()
		// Only what a net/http server would hand the mux: a valid method
		// token and an origin-form target without control bytes.
		if !validMethod(method) {
			t.Skip()
		}
		if !strings.HasPrefix(target, "/") {
			target = "/" + target
		}
		for _, r := range target {
			if r <= ' ' || r == 0x7f {
				t.Skip()
			}
		}
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip()
		}
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if strings.HasPrefix(path.Clean(req.URL.Path), "/cluster/") {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		l.Router.ServeHTTP(rec, req) // must not panic

		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%s %q -> undefined status %d", method, target, rec.Code)
		}
		if rec.Code == http.StatusBadRequest || rec.Code == http.StatusNotImplemented {
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("%s %q -> %d without a JSON error body (decode err %v)", method, target, rec.Code, err)
			}
		}
		if l.Router.NumVertices() != 8 {
			t.Fatalf("%s %q changed the vertex set: |V| = %d", method, target, l.Router.NumVertices())
		}
		labels, err := l.Router.GlobalLabels()
		if err != nil {
			t.Fatalf("GlobalLabels after %s %q: %v", method, target, err)
		}
		if len(labels) != 8 || labels[2] != labels[0] {
			t.Fatalf("%s %q: labels %v, want 8 with 0–1–2 still joined", method, target, labels)
		}
		distinct := map[graph.V]bool{}
		for _, lab := range labels {
			distinct[lab] = true
		}
		rec = answer(l.Router, "GET", "/census?top=8", "")
		var census struct {
			Components int               `json:"components"`
			Top        []serve.Component `json:"top"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &census); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("/census after %s %q: %d %s", method, target, rec.Code, rec.Body)
		}
		if census.Components != len(distinct) || len(census.Top) != len(distinct) {
			t.Fatalf("%s %q: /census = %+v, GlobalLabels has %d distinct labels", method, target, census, len(distinct))
		}
	})
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
