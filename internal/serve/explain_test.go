package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// getJSON fetches url and decodes the body, asserting the status.
func getMap(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// explainHops decodes the witness array of a /explain body.
func explainHops(t *testing.T, body map[string]any) [][2]uint64 {
	t.Helper()
	raw, ok := body["witness"].([]any)
	if !ok {
		return nil
	}
	hops := make([][2]uint64, len(raw))
	for i, h := range raw {
		m := h.(map[string]any)
		hops[i] = [2]uint64{uint64(m["u"].(float64)), uint64(m["v"].(float64))}
	}
	return hops
}

// TestExplainEndpoint drives the full surface over HTTP: witness paths
// are contiguous, every hop is a posted edge, /history carries the
// component's merges, disconnected pairs answer witness:null, and the
// depth gauge moves.
func TestExplainEndpoint(t *testing.T) {
	srv, err := Open(core.NewIncremental(64), 0, Config{
		Provenance: true,
		WALDir:     t.TempDir() + "/wal",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	posted := map[[2]uint64]bool{}
	post := func(u, v int) {
		postEdge(t, ts.URL, u, v)
		posted[[2]uint64{uint64(min(u, v)), uint64(max(u, v))}] = true
	}
	for i := 0; i < 9; i++ {
		post(i, i+1) // path 0..9
	}
	post(20, 21)

	body := getMap(t, ts.URL+"/explain?u=0&v=9", http.StatusOK)
	if body["connected"] != true {
		t.Fatalf("explain 0-9: %v", body)
	}
	hops := explainHops(t, body)
	if len(hops) == 0 {
		t.Fatalf("no witness for connected pair: %v", body)
	}
	at := uint64(0)
	for _, h := range hops {
		if h[0] != at {
			t.Fatalf("witness not contiguous at %v (expected from %d)", h, at)
		}
		if !posted[[2]uint64{min(h[0], h[1]), max(h[0], h[1])}] {
			t.Fatalf("witness hop %v is not a posted edge", h)
		}
		at = h[1]
	}
	if at != 9 {
		t.Fatalf("witness ends at %d, want 9", at)
	}

	// Disconnected: no witness, connected:false.
	body = getMap(t, ts.URL+"/explain?u=0&v=21", http.StatusOK)
	if body["connected"] != false || body["witness"] != nil {
		t.Fatalf("explain across components: %v", body)
	}

	// History of the big component: 9 merges, ordinal order.
	body = getMap(t, ts.URL+"/history?v=5", http.StatusOK)
	if body["count"].(float64) != 9 {
		t.Fatalf("history count %v, want 9", body["count"])
	}

	// The witness-depth gauge reflects the last answered explain.
	if got := srv.provDepth.Value(); got != 9 {
		t.Fatalf("witness depth gauge %v, want 9", got)
	}

	// /stats carries the provenance section.
	body = getMap(t, ts.URL+"/stats", http.StatusOK)
	prov, ok := body["provenance"].(map[string]any)
	if !ok || prov["records"].(float64) != 10 {
		t.Fatalf("stats provenance section: %v", body["provenance"])
	}
}

// TestExplainDisabled: without cfg.Provenance the three endpoints
// answer 404 with a hint, and the write path carries no forest.
func TestExplainDisabled(t *testing.T) {
	srv, err := Open(core.NewIncremental(16), 0, Config{WALDir: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	postEdge(t, ts.URL, 0, 1)
	for _, path := range []string{"/explain?u=0&v=1", "/history?v=0", "/debug/provenance"} {
		body := getMap(t, ts.URL+path, http.StatusNotFound)
		if body["error"] == nil {
			t.Fatalf("GET %s: missing error hint: %v", path, body)
		}
	}
	if srv.Provenance() != nil {
		t.Fatal("forest exists with Provenance off")
	}
}

// TestExplainBootstrapGap: edges applied before provenance existed
// (bootstrap labels) are connected in π but have no witness — the
// handler reports the gap explicitly instead of inventing a path.
func TestExplainBootstrapGap(t *testing.T) {
	pre := core.NewIncremental(16)
	pre.AddEdge(0, 1) // merged before any forest exists
	srv, err := Open(pre, 1, Config{
		Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	body := getMap(t, ts.URL+"/explain?u=0&v=1", http.StatusOK)
	if body["connected"] != true || body["witness"] != nil || body["reason"] == nil {
		t.Fatalf("pre-provenance pair: %v", body)
	}
}

// TestProvenanceGaugesTrackFlushes: each flush refreshes the forest's
// two gauges, so a /metrics scrape that no /stats request preceded reads
// the forest as it stands.
func TestProvenanceGaugesTrackFlushes(t *testing.T) {
	srv := New(core.NewIncremental(64), 0, Config{Provenance: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	for i := 0; i < 3; i++ {
		postEdge(t, ts.URL, i, i+1)
	}
	st := srv.Provenance().StatsNow()
	if st.Records != 3 {
		t.Fatalf("forest holds %d records after three merging POSTs, want 3", st.Records)
	}
	for sample, want := range map[string]float64{
		"afforest_provenance_records":      3,
		"afforest_provenance_memory_bytes": float64(st.MemoryBytes),
	} {
		if got, ok := scrapeSample(t, ts.URL, sample); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", sample, got, ok, want)
		}
	}
}

// TestExplainSurvivesWALRestart: a server restarted purely from its WAL
// rebuilds the same merge forest, so the canonical dump and every
// /explain answer come back identical. Two inputs: 200 single-edge
// POSTs, and bulk POSTs whose flushes each span many 256-edge link
// chunks at Parallelism 2. Linked in parallel, such a flush would let
// the schedule pick which edge of a cycle merges, and serial replay
// could pick another.
func TestExplainSurvivesWALRestart(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n           int
		parallelism int
		bulk        int // edges in each of two POSTs; 0 means 200 single-edge POSTs
	}{
		{name: "single posts", n: 128},
		{name: "bulk posts", n: 4096, parallelism: 2, bulk: 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Provenance: true, WALDir: dir + "/wal", Parallelism: tc.parallelism}
			srv, err := Open(core.NewIncremental(tc.n), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			rng := rand.New(rand.NewSource(3))
			posted := map[[2]uint64]bool{}
			note := func(u, v int) { posted[[2]uint64{uint64(min(u, v)), uint64(max(u, v))}] = true }
			if tc.bulk > 0 {
				for range 2 {
					edges := make([]graph.Edge, tc.bulk)
					for i := range edges {
						u, v := rng.Intn(tc.n), rng.Intn(tc.n)
						edges[i] = graph.Edge{U: graph.V(u), V: graph.V(v)}
						note(u, v)
					}
					if _, _, status := postEdges(t, ts.Client(), ts.URL, edges); status != http.StatusOK {
						t.Fatalf("bulk POST status %d", status)
					}
				}
			} else {
				for i := 0; i < 200; i++ {
					u, v := rng.Intn(tc.n), rng.Intn(tc.n)
					postEdge(t, ts.URL, u, v)
					note(u, v)
				}
			}
			dumpBefore := getRaw(t, ts.URL+"/debug/provenance?canonical=1")
			type answer struct {
				connected bool
				hops      [][2]uint64
			}
			queries := make([][2]int, 50)
			before := make([]answer, 50)
			for i := range queries {
				queries[i] = [2]int{rng.Intn(tc.n), rng.Intn(tc.n)}
				body := getMap(t, ts.URL+"/explain?u="+itoa(queries[i][0])+"&v="+itoa(queries[i][1]), http.StatusOK)
				before[i] = answer{body["connected"] == true, explainHops(t, body)}
			}
			ts.Close()
			srv.Close()

			// Restart purely from the log; replay rebuilds the forest.
			srv2, err := Open(core.NewIncremental(tc.n), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			defer srv2.Close()

			dumpAfter := getRaw(t, ts2.URL+"/debug/provenance?canonical=1")
			if !bytes.Equal(dumpBefore, dumpAfter) {
				t.Fatalf("canonical forest dump changed across restart:\n%s\n---\n%s", dumpBefore, dumpAfter)
			}
			for i, q := range queries {
				body := getMap(t, ts2.URL+"/explain?u="+itoa(q[0])+"&v="+itoa(q[1]), http.StatusOK)
				after := answer{body["connected"] == true, explainHops(t, body)}
				if after.connected != before[i].connected || len(after.hops) != len(before[i].hops) {
					t.Fatalf("explain %v changed across restart: before %+v after %+v", q, before[i], after)
				}
				for j := range after.hops {
					if after.hops[j] != before[i].hops[j] {
						t.Fatalf("explain %v hop %d changed: %v vs %v", q, j, before[i].hops[j], after.hops[j])
					}
				}
				// And each rebuilt witness is still a genuine path of posted edges.
				at := uint64(q[0])
				for _, h := range after.hops {
					if h[0] != at || !posted[[2]uint64{min(h[0], h[1]), max(h[0], h[1])}] {
						t.Fatalf("rebuilt witness for %v broken at hop %v", q, h)
					}
					at = h[1]
				}
				if after.connected && len(after.hops) > 0 && at != uint64(q[1]) {
					t.Fatalf("rebuilt witness for %v ends at %d", q, at)
				}
			}
		})
	}
}

// TestExplainDepthBlowupRule: feeding many shallow witnesses then one
// deep one through the /explain path fires explain_depth_blowup, and
// /stats lists the firing.
func TestExplainDepthBlowupRule(t *testing.T) {
	srv, err := Open(core.NewIncremental(1024), 0, Config{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// A long path component (deep witness) and many 2-cliques (1-hop).
	for i := 0; i < 512; i++ {
		postEdge(t, ts.URL, i, i+1)
	}
	for i := 0; i < 20; i++ {
		getMap(t, ts.URL+"/explain?u="+itoa(i)+"&v="+itoa(i+1), http.StatusOK)
	}
	getMap(t, ts.URL+"/explain?u=0&v=512", http.StatusOK)
	recent := getMap(t, ts.URL+"/stats", http.StatusOK)["anomalies"].(map[string]any)["recent"].([]any)
	fired := false
	for _, rec := range recent {
		if rec.(map[string]any)["rule"] == obs.RuleExplainDepthBlowup {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("explain_depth_blowup did not fire; recent: %+v", recent)
	}
}

// getRaw fetches url and returns the raw body.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func itoa(x int) string { return strconv.Itoa(x) }
