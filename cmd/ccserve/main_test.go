package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afforest/internal/serve"
)

func TestBuildServerSources(t *testing.T) {
	cfg := serve.Config{}
	srv, err := buildServer("", "urand", "", 500, 0, 8, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumVertices() == 0 {
		t.Fatal("empty generated graph")
	}
	srv.Close()

	// Round-trip through a snapshot file.
	path := filepath.Join(t.TempDir(), "pi.snap")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := buildServer("", "", path, 0, 0, 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumVertices() != srv.NumVertices() || restored.EdgesAccepted() != srv.EdgesAccepted() {
		t.Fatalf("restored %d/%d, want %d/%d", restored.NumVertices(), restored.EdgesAccepted(),
			srv.NumVertices(), srv.EdgesAccepted())
	}
	restored.Close()
}

func TestBuildServerErrors(t *testing.T) {
	cfg := serve.Config{}
	if _, err := buildServer("a.el", "urand", "", 10, 0, 4, 1, cfg); err == nil {
		t.Fatal("-in with -gen accepted")
	}
	if _, err := buildServer("", "urand", "x.snap", 10, 0, 4, 1, cfg); err == nil {
		t.Fatal("-gen with -restore accepted")
	}
	if _, err := buildServer("", "", "", 0, 0, 0, 0, cfg); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := buildServer("", "bogus", "", 10, 0, 4, 1, cfg); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := buildServer("/nonexistent/g.csr", "", "", 0, 0, 0, 0, cfg); err == nil {
		t.Fatal("missing input file accepted")
	}
	if _, err := buildServer("", "", "/nonexistent/pi.snap", 0, 0, 0, 0, cfg); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestLoadtestAgainstInProcessServer is the acceptance check for
// -loadtest: a live in-process server sustains a mixed read/write
// workload with zero errors and nonzero throughput in both classes.
func TestLoadtestAgainstInProcessServer(t *testing.T) {
	srv, err := buildServer("", "urand", "", 2000, 0, 8, 3, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	url, stop, err := startInProcess(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	boot := srv.EdgesAccepted()

	report, err := runLoadtest(url, loadConfig{
		Duration: 300 * time.Millisecond,
		Clients:  4,
		ReadFrac: 0.7,
		Bulk:     4,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("loadtest saw %d errors", report.Errors)
	}
	if report.Reads == 0 || report.Writes == 0 {
		t.Fatalf("degenerate mix: %d reads, %d writes", report.Reads, report.Writes)
	}
	if report.Edges != report.Writes*4 {
		t.Fatalf("edges = %d, want %d", report.Edges, report.Writes*4)
	}
	if report.ServerStats == nil {
		t.Fatal("no server stats collected")
	}
	// The server must have accepted exactly the submitted edge count on
	// top of the bootstrap graph — no write the loadtest got a 200 for
	// may be lost.
	if got := srv.EdgesAccepted(); got != boot+report.Edges {
		t.Fatalf("edges accepted = %d, want %d+%d", got, boot, report.Edges)
	}
	out := report.String()
	for _, want := range []string{"ops/s", "reads", "writes", "errors"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q missing %q", out, want)
		}
	}
}

func TestRunLoadtestRejectsBadConfig(t *testing.T) {
	if _, err := runLoadtest("http://127.0.0.1:1", loadConfig{Duration: time.Millisecond, Clients: 1, ReadFrac: 0.5}); err == nil {
		t.Fatal("unreachable target accepted")
	}
}
