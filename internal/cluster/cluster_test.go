package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afforest/internal/dist"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/serve"
)

// canonical returns the min-id labeling of g — the global ground truth
// every cluster topology must reproduce bit-for-bit.
func canonical(g *graph.CSR) []graph.V {
	labels, _ := graph.SequentialCC(g)
	minOf := map[int32]graph.V{}
	for v, l := range labels {
		if m, ok := minOf[l]; !ok || graph.V(v) < m {
			minOf[l] = graph.V(v)
		}
	}
	out := make([]graph.V, len(labels))
	for v, l := range labels {
		out[v] = minOf[l]
	}
	return out
}

func testGraphs() map[string]*graph.CSR {
	path := make([]graph.Edge, 0, 99)
	for v := 0; v < 99; v++ {
		path = append(path, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	star := make([]graph.Edge, 0, 63)
	for v := 0; v < 63; v++ {
		star = append(star, graph.Edge{U: 63, V: graph.V(v)})
	}
	return map[string]*graph.CSR{
		"path-100":  graph.Build(path, graph.BuildOptions{NumVertices: 100}),
		"star-64":   graph.Build(star, graph.BuildOptions{NumVertices: 64}),
		"urand-256": gen.URandDegree(256, 4, 7),
		"kron-8":    gen.Kronecker(8, 8, gen.Graph500, 42),
	}
}

// loadChecked loads g into a fresh loopback cluster of the given width
// (closed when the test ends) and requires the assembled global
// labeling to equal the canonical min-id labeling exactly.
func loadChecked(t *testing.T, g *graph.CSR, shards int) *Local {
	t.Helper()
	l, err := StartLocal(g.NumVertices(), shards, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	got, err := l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	for v, want := range canonical(g) {
		if got[v] != want {
			t.Fatalf("%d shards: label[%d] = %d, want %d", shards, v, got[v], want)
		}
	}
	return l
}

// TestClusterMatchesSingleNode loads each graph into 1-, 2-, 3-, 4-,
// and 7-shard topologies and requires the assembled global labeling to
// equal the canonical min-id labeling exactly.
func TestClusterMatchesSingleNode(t *testing.T) {
	for name, g := range testGraphs() {
		want := canonical(g)
		for _, shards := range []int{1, 2, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				l := loadChecked(t, g, shards)
				// Point queries agree with the labeling.
				checks := [][2]graph.V{{0, graph.V(g.NumVertices() - 1)}, {0, 1}}
				for _, c := range checks {
					conn, err := l.Router.Connected(c[0], c[1])
					if err != nil {
						t.Fatalf("Connected(%d,%d): %v", c[0], c[1], err)
					}
					if conn != (want[c[0]] == want[c[1]]) {
						t.Fatalf("Connected(%d,%d) = %v, want %v", c[0], c[1], conn, !conn)
					}
				}
			})
		}
	}
}

// TestClusterMatchesOracleOnSuite loads every generator of the
// benchmark suite into 1-, 2-, 4- and 7-shard topologies; each load
// must reproduce the oracle labeling and report the requested width.
func TestClusterMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 33)
		for _, shards := range []int{1, 2, 4, 7} {
			st := loadChecked(t, g, shards).Router.Stats()
			if st.Shards != shards && g.NumVertices() >= shards {
				t.Fatalf("%s: stats report %d shards, want %d", sg.Name, st.Shards, shards)
			}
		}
	}
}

// TestClusterSingleShardNoMessages checks that a shard owning every
// vertex labels the graph without cutting an edge or sending an
// opinion.
func TestClusterSingleShardNoMessages(t *testing.T) {
	st := loadChecked(t, gen.URandDegree(2000, 8, 5), 1).Router.Stats()
	if st.CutEdges != 0 || st.Messages != 0 {
		t.Fatalf("single shard communicated: %+v", st)
	}
}

// TestClusterPathRoundsBoundedByShards loads a 1000-vertex path into 8
// shards. Each shard collapses its own stretch of the path locally, so
// the minimum label crosses the partition's quotient path (8 shards)
// rather than the graph's 999 hops: rounds are O(shards), not
// O(diameter).
func TestClusterPathRoundsBoundedByShards(t *testing.T) {
	const n = 1000
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	st := loadChecked(t, graph.Build(edges, graph.BuildOptions{NumVertices: n}), 8).Router.Stats()
	if st.Rounds > 16 {
		t.Fatalf("rounds = %d, expected O(shards), not O(diameter)", st.Rounds)
	}
}

// TestClusterCutEdgesGrowWithShards checks that narrower blocks cut
// more edges of a uniform random graph.
func TestClusterCutEdgesGrowWithShards(t *testing.T) {
	g := gen.URandDegree(4000, 16, 3)
	cut2, cut8 := loadChecked(t, g, 2).Router.Stats().CutEdges, loadChecked(t, g, 8).Router.Stats().CutEdges
	if cut8 <= cut2 {
		t.Fatalf("cut edges must grow with shard count: %d (2 shards) vs %d (8 shards)", cut2, cut8)
	}
}

// TestClusterOpinionsBelowLPMessages is the distributed extension's
// thesis on a high-diameter graph: local forests plus boundary label
// exchange send fewer (vertex, label) opinions than halo-exchange label
// propagation sends messages on the same partition.
func TestClusterOpinionsBelowLPMessages(t *testing.T) {
	g := gen.Road(10_000, 5)
	opinions := loadChecked(t, g, 8).Router.Stats().Opinions
	_, lp := dist.LP(g, 8)
	if opinions >= lp.Messages {
		t.Fatalf("cluster opinions (%d) not below LP halo messages (%d)", opinions, lp.Messages)
	}
}

// TestClusterIncrementalWrites streams a path graph edge by edge
// through AddEdges — every prefix must answer Connected consistently
// with how much of the path has arrived.
func TestClusterIncrementalWrites(t *testing.T) {
	const n = 40
	l, err := StartLocal(n, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	for v := 0; v+1 < n; v++ {
		merged, err := l.Router.AddEdges([]graph.Edge{{U: graph.V(v), V: graph.V(v + 1)}})
		if err != nil {
			t.Fatalf("AddEdges(%d,%d): %v", v, v+1, err)
		}
		if merged != 1 {
			t.Fatalf("AddEdges(%d,%d) merged %d components, want 1", v, v+1, merged)
		}
		if conn, _ := l.Router.Connected(0, graph.V(v+1)); !conn {
			t.Fatalf("after edge (%d,%d): 0 and %d not connected", v, v+1, v+1)
		}
		if v+2 < n {
			if conn, _ := l.Router.Connected(0, graph.V(n-1)); conn {
				t.Fatalf("after edge (%d,%d): 0 and %d connected too early", v, v+1, n-1)
			}
		}
	}
	if got := l.Router.EdgesAccepted(); got != n-1 {
		t.Fatalf("EdgesAccepted = %d, want %d", got, n-1)
	}
}

// TestClusterLeaveJoin drives the membership transition: snapshot
// handoff on leave, read-only degraded service during the vacancy, and
// a restored replacement that keeps answering identically.
func TestClusterLeaveJoin(t *testing.T) {
	g := gen.URandDegree(300, 4, 11)
	want := canonical(g)
	l, err := StartLocal(g.NumVertices(), 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}

	if err := l.Router.Leave(1); err != nil {
		t.Fatalf("Leave(1): %v", err)
	}

	// Reads during the vacancy: labels and point queries still exact.
	got, err := l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels while degraded: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("degraded label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	lo, hi := l.Router.part.Range(1)
	mid := graph.V((lo + hi) / 2)
	if conn, err := l.Router.Connected(0, mid); err != nil {
		t.Fatalf("Connected while degraded: %v", err)
	} else if conn != (want[0] == want[mid]) {
		t.Fatalf("Connected(0,%d) while degraded = %v, want %v", mid, conn, !conn)
	}

	// Writes during the vacancy are refused, not wrong.
	if _, err := l.Router.AddEdges([]graph.Edge{{U: 0, V: 299}}); err != ErrDegraded {
		t.Fatalf("AddEdges while degraded: err = %v, want ErrDegraded", err)
	}
	if err := l.Router.Leave(1); err == nil {
		t.Fatal("second Leave(1) succeeded on a vacant slot")
	}

	// A replacement joins with the retained snapshot.
	addr, err := l.SpawnShard(0)
	if err != nil {
		t.Fatalf("SpawnShard: %v", err)
	}
	if err := l.Router.Join(1, addr); err != nil {
		t.Fatalf("Join(1): %v", err)
	}
	got, err = l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels after join: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("post-join label[%d] = %d, want %d", v, got[v], want[v])
		}
	}

	// Writes flow again and produce correct merges.
	var u, v graph.V
	found := false
	for x := 0; x < 300 && !found; x++ {
		for y := x + 1; y < 300; y++ {
			if want[x] != want[y] {
				u, v, found = graph.V(x), graph.V(y), true
				break
			}
		}
	}
	if !found {
		t.Skip("graph fully connected; no merge candidate")
	}
	merged, err := l.Router.AddEdges([]graph.Edge{{U: u, V: v}})
	if err != nil {
		t.Fatalf("AddEdges after join: %v", err)
	}
	if merged != 1 {
		t.Fatalf("AddEdges(%d,%d) merged %d, want 1", u, v, merged)
	}
	if conn, _ := l.Router.Connected(u, v); !conn {
		t.Fatalf("Connected(%d,%d) false after merging edge", u, v)
	}
}

// TestClusterClampsShardCount verifies a partition narrower than the
// requested shard list still serves (surplus addresses ignored).
func TestClusterClampsShardCount(t *testing.T) {
	l, err := StartLocal(2, 4, Config{})
	if err != nil {
		t.Fatalf("StartLocal(2 vertices, 4 shards): %v", err)
	}
	defer l.Close()
	if got := l.Router.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want clamp to 2", got)
	}
	if _, err := l.Router.AddEdges([]graph.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	if conn, _ := l.Router.Connected(0, 1); !conn {
		t.Fatal("Connected(0,1) false after adding the edge")
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

// TestClusterHTTPSurface exercises the router's full HTTP API against a
// live local topology, including the wire metrics on /metrics.
func TestClusterHTTPSurface(t *testing.T) {
	g := gen.URandDegree(200, 4, 3)
	l, err := StartLocal(g.NumVertices(), 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	srv := httptest.NewServer(l.Router)
	defer srv.Close()
	want := canonical(g)

	var connResp struct {
		Connected bool `json:"connected"`
	}
	resp := getJSON(t, srv, "/connected?u=0&v=199", &connResp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/connected status %d", resp.StatusCode)
	}
	if connResp.Connected != (want[0] == want[199]) {
		t.Fatalf("/connected = %v, want %v", connResp.Connected, !connResp.Connected)
	}
	if resp := getJSON(t, srv, "/connected?u=0&v=999", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/connected out-of-range status %d, want 400", resp.StatusCode)
	}

	var census struct {
		Vertices   int               `json:"vertices"`
		Components int               `json:"components"`
		Top        []serve.Component `json:"top"`
	}
	getJSON(t, srv, "/census?top=5", &census)
	comps := map[graph.V]int{}
	for _, lab := range want {
		comps[lab]++
	}
	if census.Vertices != 200 || census.Components != len(comps) {
		t.Fatalf("/census = %d vertices / %d components, want 200 / %d",
			census.Vertices, census.Components, len(comps))
	}
	if len(census.Top) > 0 {
		best := 0
		for _, c := range comps {
			best = max(best, c)
		}
		if census.Top[0].Size != best {
			t.Fatalf("/census top size %d, want %d", census.Top[0].Size, best)
		}
	}

	// Writes: single edge then bulk.
	post := func(body string) *http.Response {
		resp, err := srv.Client().Post(srv.URL+"/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /edges: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"u":0,"v":1}`); resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /edges single: status %d: %s", resp.StatusCode, b)
	}
	if resp := post(`{"edges":[[2,3],[4,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges bulk: status %d", resp.StatusCode)
	}
	if resp := post(`{"u":0,"v":100000}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /edges out-of-range: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"nope":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /edges unknown field: status %d, want 400", resp.StatusCode)
	}

	var stats struct {
		Cluster RouterStats `json:"cluster"`
	}
	getJSON(t, srv, "/stats", &stats)
	if stats.Cluster.Active != 3 || stats.Cluster.Exchanges == 0 ||
		stats.Cluster.BytesSent == 0 || stats.Cluster.BytesRecv == 0 {
		t.Fatalf("/stats cluster tallies implausible: %+v", stats.Cluster)
	}

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("/healthz status %q, want ok", health.Status)
	}

	var topo struct {
		Shards   []struct{ Active bool } `json:"shards"`
		Degraded bool                    `json:"degraded"`
	}
	getJSON(t, srv, "/cluster", &topo)
	if len(topo.Shards) != 3 || topo.Degraded {
		t.Fatalf("/cluster = %+v", topo)
	}

	// Wire metrics are real and nonzero.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, metric := range []string{
		"afforest_cluster_bytes_total",
		"afforest_cluster_messages_total",
		"afforest_cluster_exchange_rounds_total",
		"afforest_cluster_exchanges_total",
		"afforest_cluster_shard_lag_ns",
		"afforest_cluster_shards_active 3",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Fatalf("/metrics missing %q", metric)
		}
	}
	for _, zero := range []string{
		`afforest_cluster_bytes_total{dir="sent",shard="0"} 0`,
		`afforest_cluster_exchange_rounds_total 0`,
	} {
		if bytes.Contains(body, []byte(zero)) {
			t.Fatalf("/metrics reports zero where traffic happened: %q", zero)
		}
	}

	// Membership over HTTP: leave → degraded + 503 writes → join.
	if resp := post(`{"u":6,"v":7}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-leave write status %d", resp.StatusCode)
	}
	lresp, err := srv.Client().Post(srv.URL+"/cluster/leave?shard=2", "application/json", nil)
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster/leave: %v status %d", err, lresp.StatusCode)
	}
	lresp.Body.Close()
	if resp := post(`{"u":8,"v":9}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write status %d, want 503", resp.StatusCode)
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "degraded" {
		t.Fatalf("/healthz status %q during vacancy, want degraded", health.Status)
	}
	addr, err := l.SpawnShard(0)
	if err != nil {
		t.Fatalf("SpawnShard: %v", err)
	}
	jresp, err := srv.Client().Post(srv.URL+"/cluster/join?shard=2&addr="+addr, "application/json", nil)
	if err != nil || jresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster/join: %v status %d", err, jresp.StatusCode)
	}
	jresp.Body.Close()
	if resp := post(`{"u":8,"v":9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-join write status %d, want 200", resp.StatusCode)
	}
}

// TestClusterEdgesBodyLimit: a POST /edges body past the 4 MiB limit is
// refused with 413 and a JSON error before any edge reaches a shard.
func TestClusterEdgesBodyLimit(t *testing.T) {
	l, err := StartLocal(16, 2, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	srv := httptest.NewServer(l.Router)
	defer srv.Close()

	body := `{"edges":[` + strings.Repeat("[0,1],", (4<<20)/6) + `[0,1]]}`
	resp, err := srv.Client().Post(srv.URL+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /edges: %v", err)
	}
	defer resp.Body.Close()
	var e map[string]string
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /edges: status %d, want 413", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("oversized POST /edges: no JSON error body (decode err %v)", err)
	}
	if got := l.Router.EdgesAccepted(); got != 0 {
		t.Fatalf("oversized body applied %d edges", got)
	}
	if conn, _ := l.Router.Connected(0, 1); conn {
		t.Fatal("oversized body connected 0 and 1")
	}
}

// TestConfigKnobBudget pins the exported Config fields to a literal
// list, the way core's TestOptionsKnobBudget pins Options: a new knob
// has to edit this list in the same change, so adding one is always
// visible in review.
func TestConfigKnobBudget(t *testing.T) {
	want := []string{"Parallelism", "Trace", "Provenance"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config fields = %v, want %v", got, want)
	}
}
