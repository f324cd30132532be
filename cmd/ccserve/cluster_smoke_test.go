package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// proc is one spawned binary whose stdout is scanned for its
// "listening on" / "serving on" address announcement.
type proc struct {
	cmd  *exec.Cmd
	addr chan string
	out  strings.Builder
	mu   sync.Mutex
}

func spawn(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), addr: make(chan string, 1)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case p.addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case p.addr <- strings.TrimSpace(line[i+len("serving on "):]):
				default:
				}
			}
		}
	}()
	return p
}

func (p *proc) waitAddr(t *testing.T, timeout time.Duration) string {
	t.Helper()
	select {
	case a := <-p.addr:
		return a
	case <-time.After(timeout):
		p.mu.Lock()
		out := p.out.String()
		p.mu.Unlock()
		t.Fatalf("no address announced within %v; output so far:\n%s", timeout, out)
		return ""
	}
}

// TestClusterSmoke is the `make cluster-smoke` acceptance drill: real
// ccshard and ccserve binaries, a 3-shard + router topology on
// loopback, a kron-16 graph, census equality against the single-node
// answer, live wire metrics on /metrics, and a shard leave/join with
// snapshot handoff — all as separate OS processes.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and loads a kron-16 graph")
	}
	dir := t.TempDir()
	shardBin := filepath.Join(dir, "ccshard")
	serveBin := filepath.Join(dir, "ccserve")
	for bin, pkg := range map[string]string{shardBin: "afforest/cmd/ccshard", serveBin: "afforest/cmd/ccserve"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Three real shard processes on kernel-assigned loopback ports.
	var addrs []string
	var shards []*proc
	for i := 0; i < 3; i++ {
		p := spawn(t, shardBin, "-addr", "127.0.0.1:0")
		shards = append(shards, p)
		addrs = append(addrs, p.waitAddr(t, 10*time.Second))
	}

	// The router process loads kron-16 and serves the cluster.
	router := spawn(t, serveBin,
		"-cluster", strings.Join(addrs, ","),
		"-gen", "kron", "-scale", "16", "-deg", "16", "-seed", "42",
		"-addr", "127.0.0.1:0")
	base := "http://" + router.waitAddr(t, 60*time.Second)

	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
	}

	// Single-node ground truth for the identical graph.
	g := gen.Kronecker(16, 16, gen.Graph500, 42)
	labels, _ := graph.SequentialCC(g)
	counts := map[int32]int{}
	for _, l := range labels {
		counts[l]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))

	// Census equality: component count and the top-10 size profile.
	var census struct {
		Vertices   int `json:"vertices"`
		Components int `json:"components"`
		Top        []struct {
			Size int `json:"size"`
		} `json:"top"`
	}
	get("/census?top=10", &census)
	if census.Vertices != g.NumVertices() || census.Components != len(counts) {
		t.Fatalf("cluster census %d vertices / %d components, single-node %d / %d",
			census.Vertices, census.Components, g.NumVertices(), len(counts))
	}
	for i, c := range census.Top {
		if i >= len(sizes) || c.Size != sizes[i] {
			t.Fatalf("cluster top[%d] size %d, single-node %d", i, c.Size, sizes[i])
		}
	}

	// Wire metrics are live and nonzero.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, m := range []string{
		"afforest_cluster_exchange_rounds_total",
		"afforest_cluster_bytes_total",
		"afforest_cluster_messages_total",
	} {
		found := false
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, m) && !strings.HasSuffix(line, " 0") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("/metrics has no nonzero %s sample", m)
		}
	}

	// The merged cluster timeline on /debug/cluster sees all three
	// shards and at least one exchange round — the load's RPCs carried
	// the trace-context extension end to end and the shards' server
	// spans came back over opFlight.
	resp, err = http.Get(base + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/cluster: status %d: %s", resp.StatusCode, body)
	}
	timeline := string(body)
	if !strings.Contains(timeline, "trace ") {
		t.Fatalf("/debug/cluster has no traces:\n%s", timeline)
	}
	shardsSeen := map[string]bool{}
	maxRound := 0
	for _, line := range strings.Split(timeline, "\n") {
		f := strings.Fields(line)
		if len(f) < 7 || f[2] != "outbox" {
			continue
		}
		shardsSeen[f[1]] = true
		var round int
		fmt.Sscanf(f[0], "%d", &round)
		if round > maxRound {
			maxRound = round
		}
	}
	for _, s := range []string{"0", "1", "2"} {
		if !shardsSeen[s] {
			t.Fatalf("/debug/cluster timeline missing shard %s outbox lanes:\n%s", s, timeline)
		}
	}
	if maxRound < 1 {
		t.Fatalf("/debug/cluster timeline shows no exchange round:\n%s", timeline)
	}

	// A clean load must not have tripped the wire-error-burst rule.
	var stats struct {
		Anomalies struct {
			Recent []struct {
				Rule string `json:"rule"`
			} `json:"recent"`
		} `json:"anomalies"`
	}
	get("/stats", &stats)
	for _, a := range stats.Anomalies.Recent {
		if a.Rule == "wire_error_burst" {
			t.Fatalf("wire_error_burst anomaly fired during a clean load: %+v", stats.Anomalies.Recent)
		}
	}

	// Leave/join drill with snapshot handoff: shard 1's process exits on
	// leave (opShutdown), a fresh process takes the slot, and the census
	// is unchanged.
	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/cluster/leave?shard=1"); resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("leave: status %d: %s", resp.StatusCode, b)
	}
	done := make(chan error, 1)
	go func() { done <- shards[1].cmd.Wait() }()
	select {
	case <-done: // exited gracefully on opShutdown
	case <-time.After(10 * time.Second):
		t.Fatal("shard 1 process did not exit after leave")
	}
	if resp := post("/edges?x=1"); resp.StatusCode != http.StatusServiceUnavailable {
		// Body shape irrelevant — degraded must answer 503 before parsing.
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("degraded write: status %d, want 503", resp.StatusCode)
		}
	}
	replacement := spawn(t, shardBin, "-addr", "127.0.0.1:0")
	raddr := replacement.waitAddr(t, 10*time.Second)
	if resp := post("/cluster/join?shard=1&addr=" + raddr); resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("join: status %d: %s", resp.StatusCode, b)
	}
	var after struct {
		Components int `json:"components"`
	}
	get("/census?top=1", &after)
	if after.Components != len(counts) {
		t.Fatalf("census after leave/join: %d components, want %d", after.Components, len(counts))
	}

	var health struct {
		Status string `json:"status"`
	}
	get("/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz %q after join, want ok", health.Status)
	}
}

// TestClusterMainFlagValidation pins the cluster-mode flag contract:
// each single-node flag given on the command line is refused by name,
// with a pointer to what to use instead, before any shard is dialed.
func TestClusterMainFlagValidation(t *testing.T) {
	for _, tc := range []struct{ flag, hint string }{
		{"restore", "shard snapshots"},
		{"save", "shard snapshots"},
		{"wal-dir", "write-ahead log"},
		{"wal-fsync", "write-ahead log"},
		{"wal-segment-bytes", "write-ahead log"},
		{"provenance", "ccshard -provenance"},
		{"flight", "/debug/cluster"},
		{"loadtest", "-target"},
	} {
		err := clusterMain("127.0.0.1:1", ":0", "", "", "urand", 10, 0, 4, 1, 0, map[string]bool{tc.flag: true})
		if err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" is a single-node flag") ||
			!strings.Contains(err.Error(), tc.hint) {
			t.Fatalf("-%s in cluster mode: err = %v, want a refusal naming the flag and %q", tc.flag, err, tc.hint)
		}
	}
	if err := clusterMain("127.0.0.1:1", ":0", "", "", "", 10, 0, 4, 1, 0, nil); err == nil {
		t.Fatal("cluster mode without a graph source accepted")
	}
	if err := clusterMain("127.0.0.1:1", ":0", "", "a.el", "urand", 10, 0, 4, 1, 0, nil); err == nil {
		t.Fatal("-in with -gen accepted in cluster mode")
	}
	// A dead shard address must fail the dial, not hang.
	if err := clusterMain("127.0.0.1:1", ":0", "", "", "urand", 100, 0, 2, 1, 0, nil); err == nil {
		t.Fatal("unreachable shard accepted")
	}
}
