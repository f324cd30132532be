package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/serve"
	"afforest/internal/wal"
)

// copyWALDir snapshots a WAL directory the way a crash would: closed
// segments are immutable, and the active segment is read as whatever
// prefix the filesystem returns mid-append (a possibly-torn tail the
// replay scanner must cut cleanly).
func copyWALDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSmoke is the end-to-end crash-recovery loop (`make
// wal-smoke`): run a durable server under a seeded concurrent write
// workload, copy the WAL directory mid-flight as a crash image, keep
// writing, then boot a fresh server from the image alone and verify
// every edge acknowledged before the copy began survived — the
// durability contract holding across the full HTTP → batcher → WAL →
// replay path, torn tail included.
func TestWALSmoke(t *testing.T) {
	const n = 4096
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	crashDir := filepath.Join(dir, "crash")

	srv, err := serve.Open(core.NewIncremental(n), 0, serve.Config{
		WALDir:          walDir,
		WALSegmentBytes: 4096, // rotate often: the image spans several segments
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stop, err := startInProcess(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	post := func(rng *rand.Rand, k int) []graph.Edge {
		edges := make([]graph.Edge, k)
		pairs := make([][2]uint32, k)
		for i := range edges {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			edges[i] = graph.Edge{U: u, V: v}
			pairs[i] = [2]uint32{u, v}
		}
		body, _ := json.Marshal(map[string]any{"edges": pairs})
		resp, err := http.Post(url+"/edges", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /edges: status %d", resp.StatusCode)
			return nil
		}
		var ack struct {
			LSN uint64 `json:"lsn"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.LSN == 0 {
			t.Errorf("write not assigned an lsn (err=%v)", err)
			return nil
		}
		return edges
	}

	// Phase 1: acknowledged before the crash image — must survive.
	rng := rand.New(rand.NewSource(1234))
	var durable []graph.Edge
	for i := 0; i < 40; i++ {
		durable = append(durable, post(rng, 5)...)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: copy the live WAL directory while a concurrent writer
	// keeps appending — the image's tail is torn wherever the copy's
	// reads landed.
	stopWriter := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(5678))
		for {
			select {
			case <-stopWriter:
				return
			default:
				post(wrng, 3)
			}
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the writer land appends first
	copyWALDir(t, walDir, crashDir)
	close(stopWriter)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 3: boot from the crash image alone. Replay must cut any torn
	// tail cleanly (a crash, not divergence) and rebuild a structure
	// containing every pre-image acknowledged edge.
	crashed, err := serve.Open(core.NewIncremental(n), 0, serve.Config{
		WALDir: crashDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	rep := crashed.WALReplay()
	if rep == nil {
		t.Fatal("crash-image server has no replay stats")
	}
	if rep.Diverged {
		t.Fatalf("crash image replay diverged: %s", rep.Divergence)
	}
	if rep.Records < int64(len(durable)/5) {
		t.Fatalf("replayed %d records, fewer than the %d durably acked", rep.Records, len(durable)/5)
	}

	// Oracle: an independent replay of the image into a serial check of
	// exactly what the recovered server should contain.
	oracleEdges := []graph.Edge{}
	if _, err := wal.Replay(nil, crashDir, 0, func(_ wal.LSN, edges []graph.Edge) error {
		oracleEdges = append(oracleEdges, edges...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	oracle := core.NewIncremental(n)
	for _, e := range oracleEdges {
		oracle.AddEdge(e.U, e.V)
	}
	opi, cpi := oracle.Snapshot(0), crashed.Refresh().Labels
	for i := range opi {
		if opi[i] != cpi[i] {
			t.Fatalf("recovered π[%d]=%d, oracle over the replayed edge set says %d", i, cpi[i], opi[i])
		}
	}
	for _, e := range durable {
		if cpi[e.U] != cpi[e.V] {
			t.Fatalf("acked edge {%d,%d} lost in the crash image", e.U, e.V)
		}
	}
	fmt.Printf("wal-smoke: %d acked pre-image edges survived; replay %d records, tail=%q\n",
		len(durable), rep.Records, rep.Tail)
}
