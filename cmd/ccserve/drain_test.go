package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afforest/internal/graph"
	"afforest/internal/serve"
	"afforest/internal/wal"
)

// TestDrainFlushesPendingWrites pins the shutdown ordering: a write
// parked in a long coalescing window when the drain starts must be
// flushed and acknowledged promptly (the serve layer closes before the
// HTTP listener, cutting the window short), and the edge it carried
// must survive into the shutdown snapshot and be queryable after a
// restore. With the reverse ordering this test takes the full
// 10-second batch window and the write is abandoned at the Shutdown
// deadline without an acknowledgement.
func TestDrainFlushesPendingWrites(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	srv, err := buildServer("", "urand", "", 500, 0, 1, 1, serve.Config{
		BatchWindow: 10 * time.Second, // far longer than the whole test should take
		MaxBatch:    1 << 20,          // never flush on size
		WALDir:      walDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	url := "http://" + ln.Addr().String()

	// Pick two vertices not yet connected so the write is observable.
	var u, v int
	found := false
	labels := srv.Refresh().Labels
	for x := 0; x < 500 && !found; x++ {
		for y := x + 1; y < 500; y++ {
			if labels[x] != labels[y] {
				u, v, found = x, y, true
				break
			}
		}
	}
	if !found {
		t.Skip("bootstrap graph fully connected")
	}

	// Fire the write; it blocks in the batcher's 10s coalescing window.
	type postResult struct {
		status int
		err    error
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("%s/edges?u=%d&v=%d", url, u, v),
			"application/json", strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v)))
		if err != nil {
			posted <- postResult{err: err}
			return
		}
		resp.Body.Close()
		posted <- postResult{status: resp.StatusCode}
	}()

	// Wait until the submission is actually enqueued (accepted counter
	// only moves on flush, so poll briefly and then trust the handler is
	// parked — worst case the drain races a not-yet-enqueued write and
	// the 503 branch below catches it).
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := drainServer(ctx, httpSrv, srv); err != nil {
		t.Fatalf("drainServer: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain took %v; the pending batch window was not cut short", took)
	}

	res := <-posted
	if res.err != nil {
		t.Fatalf("in-flight write got no response: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight write status %d, want 200", res.status)
	}

	// The acknowledged edge is in the drained state...
	if labels := srv.Refresh().Labels; labels[u] != labels[v] {
		t.Fatalf("edge (%d,%d) acknowledged but absent after drain", u, v)
	}

	// ...the on-disk WAL was fsynced and closed before drainServer
	// returned: a fresh scan of the directory must find the flushed
	// write with no torn tail and no divergence — the log is already
	// complete even if the process dies right here, before any snapshot.
	walFound := false
	st, err := wal.Replay(nil, walDir, 0, func(_ wal.LSN, edges []graph.Edge) error {
		for _, e := range edges {
			if (int(e.U) == u && int(e.V) == v) || (int(e.U) == v && int(e.V) == u) {
				walFound = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replaying wal after drain: %v", err)
	}
	if st.Tail != "" || st.Diverged {
		t.Fatalf("post-drain wal not cleanly closed: %+v", st)
	}
	if !walFound {
		t.Fatalf("acknowledged edge (%d,%d) missing from the post-drain wal", u, v)
	}

	// ...and survives the persist/restore cycle (SIGTERM → restart).
	path := filepath.Join(t.TempDir(), "pi.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := buildServer("", "", path, 0, 0, 0, 0, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if labels := restored.Refresh().Labels; labels[u] != labels[v] {
		t.Fatalf("edge (%d,%d) lost across save/restore", u, v)
	}

	// Writes after the drain are refused, not silently dropped.
	resp, err := http.Post(url+"/edges", "application/json", strings.NewReader(`{"u":0,"v":1}`))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-drain write status %d, want 503 or refused connection", resp.StatusCode)
		}
	}
}
