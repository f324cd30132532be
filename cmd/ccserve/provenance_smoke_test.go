package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/provenance"
	"afforest/internal/serve"
	"afforest/internal/testkit"
)

// explainAnswer is the decoded /explain body the smoke compares across
// the restart.
type explainAnswer struct {
	Connected bool             `json:"connected"`
	Witness   []provenance.Hop `json:"witness"`
}

func getExplain(t *testing.T, url string, u, v int) explainAnswer {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/explain?u=%d&v=%d", url, u, v))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain?u=%d&v=%d: status %d", u, v, resp.StatusCode)
	}
	var ans explainAnswer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	return ans
}

func getBody(t *testing.T, url string) []byte {
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

// TestProvenanceSmoke is the end-to-end provenance loop (`make
// provenance-smoke`): run a durable provenance-enabled server under
// concurrent writers, verify every witness the live server hands out is
// a genuine path of acknowledged edges, then restart purely from the
// WAL and require the canonical forest dump and every /explain answer
// to come back byte-identical — explanations survive a crash.
func TestProvenanceSmoke(t *testing.T) {
	const n = 2048
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := serve.Config{WALDir: walDir, Provenance: true}

	srv, err := serve.Open(core.NewIncremental(n), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	url, stop, err := startInProcess(srv)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: concurrent writers stream seeded random edges; every
	// acknowledged edge is collected for the soundness oracle.
	const writers, batches, bulk = 4, 60, 6
	var mu sync.Mutex
	posted := testkit.EdgeSet{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for b := 0; b < batches; b++ {
				pairs := make([][2]uint32, bulk)
				edges := make([]graph.Edge, bulk)
				for i := range pairs {
					u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					pairs[i] = [2]uint32{u, v}
					edges[i] = graph.Edge{U: graph.V(u), V: graph.V(v)}
				}
				body, _ := json.Marshal(map[string]any{"edges": pairs})
				resp, err := http.Post(url+"/edges", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /edges: status %d", resp.StatusCode)
					return
				}
				mu.Lock()
				for _, e := range edges {
					posted.Add(e.U, e.V)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: live answers. Witnesses must be genuine paths of
	// acknowledged edges, and must agree with /connected.
	rng := rand.New(rand.NewSource(77))
	queries := make([][2]int, 80)
	before := make([]explainAnswer, len(queries))
	witnesses := 0
	for i := range queries {
		queries[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		before[i] = getExplain(t, url, queries[i][0], queries[i][1])
		if before[i].Witness != nil {
			witnesses++
			if err := testkit.CheckWitness(graph.V(queries[i][0]), graph.V(queries[i][1]), before[i].Witness, posted); err != nil {
				t.Fatal(err)
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no query produced a witness; the smoke is not exercising explain")
	}
	dumpBefore := getBody(t, url+"/debug/provenance?canonical=1")
	stop()
	srv.Close()

	// Phase 3: restart purely from the log and require identical
	// explanations.
	srv2, err := serve.Open(core.NewIncremental(n), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	url2, stop2, err := startInProcess(srv2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()

	dumpAfter := getBody(t, url2+"/debug/provenance?canonical=1")
	if !bytes.Equal(dumpBefore, dumpAfter) {
		t.Fatal("canonical provenance dump changed across the WAL restart")
	}
	for i, q := range queries {
		after := getExplain(t, url2, q[0], q[1])
		if after.Connected != before[i].Connected || len(after.Witness) != len(before[i].Witness) {
			t.Fatalf("explain %v changed across restart: %+v vs %+v", q, before[i], after)
		}
		for j := range after.Witness {
			if after.Witness[j] != before[i].Witness[j] {
				t.Fatalf("explain %v hop %d changed across restart", q, j)
			}
		}
	}
	fmt.Printf("provenance-smoke: %d writers × %d batches; %d/%d queries had witnesses, all sound; dump and answers identical after WAL restart\n",
		writers, batches, witnesses, len(queries))
}
