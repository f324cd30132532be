package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"afforest/internal/graph"
	"afforest/internal/serve"
	"afforest/internal/wal"
)

// gatedFS is the real filesystem with every segment fsync held until
// release closes; parked receives when a flush first waits.
type gatedFS struct {
	wal.FS
	parked  chan struct{}
	release chan struct{}
}

func (fs gatedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	return gatedFile{f, fs}, err
}

func (fs gatedFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := fs.FS.OpenAppend(name, size)
	return gatedFile{f, fs}, err
}

type gatedFile struct {
	wal.File
	fs gatedFS
}

func (f gatedFile) Sync() error {
	select {
	case f.fs.parked <- struct{}{}:
	default:
	}
	<-f.fs.release
	return f.File.Sync()
}

// TestDrainFlushesPendingWrites pins the shutdown ordering: a write
// whose flush is parked in its WAL fsync when the drain starts must be
// acknowledged once the fsync completes during the drain (the serve
// layer closes before the HTTP listener, which stays up and refuses new
// writes with 503 meanwhile), and the edge it carried must survive into
// the shutdown snapshot and be queryable after a restore. With the
// reverse ordering the listener closes at once, and Shutdown waits out
// its deadline on the parked write.
func TestDrainFlushesPendingWrites(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	fs := gatedFS{FS: wal.OSFS, parked: make(chan struct{}, 1), release: make(chan struct{})}
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(fs.release) }) }
	walLog, _, err := wal.Open(walDir, 0, nil, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer("", "urand", "", 500, 0, 1, 1, serve.Config{WAL: walLog})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer open() // before Close: Close waits on the parked flush
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

	// Fire the write; its flush parks in the held fsync.
	type postResult struct {
		status int
		err    error
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url+"/edges", "application/json",
			strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v)))
		if err != nil {
			posted <- postResult{err: err}
			return
		}
		resp.Body.Close()
		posted <- postResult{status: resp.StatusCode}
	}()
	select {
	case <-fs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the write's flush never reached fsync")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- drainServer(ctx, httpSrv, srv) }()

	// The drain has begun once a new write is refused. A probe that
	// beats the drain to the queue waits behind the parked flush, so it
	// times out and the next probe asks again; a refused connection
	// means the listener closed first.
	probe := &http.Client{Timeout: 200 * time.Millisecond}
	for refused := false; !refused; {
		resp, err := probe.Post(url+"/edges", "application/json", strings.NewReader(`{"u":0,"v":0}`))
		if err != nil {
			if !os.IsTimeout(err) {
				t.Fatalf("write during the drain: %v; want a 503 from a listener still up", err)
			}
			if time.Since(start) > 3*time.Second {
				t.Fatal("writes still accepted 3s into the drain")
			}
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("write during the drain: status %d, want 503", resp.StatusCode)
		}
		refused = true
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while the write's fsync was still held", err)
	default:
	}
	open()
	if err := <-drained; err != nil {
		t.Fatalf("drainServer: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain took %v; the parked write was not answered promptly", took)
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
