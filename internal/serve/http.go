package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/stats"
)

// Backend is one deployment behind the HTTP surface: a single-node
// *Server, or a cluster.Router that answers by fan-out to its shards.
// The surface range-checks every vertex and edge before it calls a
// Backend. A Backend error answers 502 Bad Gateway (the deployment could
// not reach the state that would answer), unless it is a *StatusError,
// which names its own status.
type Backend interface {
	NumVertices() int
	EdgesAccepted() int64
	Connected(u, v graph.V) (bool, error)
	// Explain reports whether u and v are connected and returns a witness
	// path of recorded input edges between them; gap reports a connected
	// pair whose witness was not recorded in full.
	Explain(u, v graph.V) (connected bool, witness []provenance.Hop, gap bool, err error)
	// ComponentSizes calls fn with the per-root size table (each
	// component's size at its root's index, zero elsewhere) and the
	// accepted-edge count, cut between whole writes. fn must not keep
	// sizes.
	ComponentSizes(fn func(sizes []int32, edges int64)) error
	// SubmitEdges applies a batch of in-range edges and acknowledges it.
	SubmitEdges(edges []graph.Edge) (Ack, error)
	// StatsSections adds the deployment's own sections to a /stats body.
	StatsSections(body map[string]any)
	// Health adds the deployment's own keys to a /healthz body and
	// returns its status.
	Health(body map[string]any) string
}

// Ack acknowledges one POST /edges batch. LSN is the write-ahead log
// record that holds the batch, 0 without a log.
type Ack struct {
	Accepted int
	Merged   int64
	LSN      uint64
}

// StatusError is a Backend error with the HTTP status the surface
// answers it with.
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// noWitness is the /explain reason for a pair that is connected but has
// no complete witness.
const noWitness = "connected, but no witness recorded: the connection predates provenance (bootstrap load, edges streamed before provenance was enabled, or a shard restore handoff)"

// maxEdgesBody caps a POST /edges body. It is far above any real batch
// (a bulk edge costs about 20 bytes of JSON) and only stops a request
// from making the server buffer an edge list of any size.
const maxEdgesBody = 4 << 20

// edgesRequest is the POST /edges body: either a single edge
// {"u":1,"v":2} or a bulk batch {"edges":[[1,2],[3,4],...]}. A bulk
// edge decodes into a slice so handleEdges can reject one of the wrong
// length: a [2]uint32 would read [5] as {5,0} and [1,2,3] as {1,2}.
type edgesRequest struct {
	U     *uint32    `json:"u"`
	V     *uint32    `json:"v"`
	Edges [][]uint32 `json:"edges"`
}

// Surface is the HTTP contract both deployments answer. It owns request
// parsing and limits, the mapping of errors to statuses, the JSON
// shapes of /connected, /census, /explain, POST /edges, /healthz and
// the common part of /stats, the per-handler request counters, the read
// and write latency recorders, and /metrics. A deployment adds its own
// routes with Handle.
type Surface struct {
	b       Backend
	reg     *obs.Registry
	mux     *http.ServeMux
	anomaly *obs.AnomalyDetector
	started time.Time

	// requests is afforest_http_requests_total by handler label, filled
	// by Handle before serving and read-only after.
	requests map[string]*obs.Counter
	bad      *obs.Counter // 4xx responses
	rejected *obs.Counter // 503 responses
	readLat  *stats.LatencyRecorder
	writeLat *stats.LatencyRecorder
}

// NewSurface serves b's shared routes. reg receives the request
// counters and latency histograms and backs GET /metrics; anomaly backs
// the /stats "anomalies" section.
func NewSurface(b Backend, reg *obs.Registry, anomaly *obs.AnomalyDetector) *Surface {
	h := &Surface{
		b:        b,
		reg:      reg,
		mux:      http.NewServeMux(),
		anomaly:  anomaly,
		started:  time.Now(),
		requests: map[string]*obs.Counter{},
		bad:      reg.Counter("afforest_http_errors_total", "Requests answered with a 4xx status."),
		rejected: reg.Counter("afforest_writes_rejected_total",
			"Requests refused with 503: writes or event subscriptions while draining, writes while degraded."),
		readLat:  stats.NewLatencyRecorder(stats.DefaultLatencyWindow),
		writeLat: stats.NewLatencyRecorder(stats.DefaultLatencyWindow),
	}
	// Mirror the latency rings into registry histograms: /stats and
	// /metrics summarize the same sample stream.
	h.readLat.Attach(reg.Histogram("afforest_read_latency_ns",
		"Read handler latency (connected/component/census).", obs.DefaultLatencyBuckets))
	h.writeLat.Attach(reg.Histogram("afforest_write_latency_ns",
		"Write handler latency (POST /edges, includes batch wait).", obs.DefaultLatencyBuckets))
	h.Handle("GET /connected", "connected", h.handleConnected)
	h.Handle("GET /census", "census", h.handleCensus)
	h.Handle("GET /explain", "explain", h.handleExplain)
	h.Handle("POST /edges", "edges", h.handleEdges)
	h.Handle("GET /stats", "stats", h.handleStats)
	h.Handle("GET /healthz", "healthz", h.handleHealthz)
	h.Handle("GET /metrics", "metrics", reg.Handler().ServeHTTP)
	return h
}

// Handle adds a deployment's own route. A non-empty name counts its
// requests in afforest_http_requests_total{handler=name}, which /stats
// lists under "requests". Call it before serving.
func (h *Surface) Handle(pattern, name string, fn http.HandlerFunc) {
	if name == "" {
		h.mux.HandleFunc(pattern, fn)
		return
	}
	c := h.reg.Counter("afforest_http_requests_total",
		"HTTP requests served, by handler.", obs.L("handler", name))
	h.requests[name] = c
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		fn(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (h *Surface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Error answers code with the JSON body {"error": msg}. A 4xx counts in
// afforest_http_errors_total, a 503 in afforest_writes_rejected_total.
func (h *Surface) Error(w http.ResponseWriter, code int, msg string) {
	switch {
	case code < 500:
		h.bad.Inc()
	case code == http.StatusServiceUnavailable:
		h.rejected.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// fail answers a Backend error: a *StatusError with its own status,
// any other error with 502.
func (h *Surface) fail(w http.ResponseWriter, err error) {
	code := http.StatusBadGateway
	var se *StatusError
	if errors.As(err, &se) {
		code = se.Code
	}
	h.Error(w, code, err.Error())
}

// WriteJSON answers 200 with v as the JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// vertexParam parses a vertex query parameter and range-checks it.
func (h *Surface) vertexParam(r *http.Request, name string) (graph.V, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	x, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %v", raw, err)
	}
	if n := h.b.NumVertices(); x >= uint64(n) {
		return 0, fmt.Errorf("vertex %d out of range (|V|=%d)", x, n)
	}
	return graph.V(x), nil
}

// pair parses the u and v query parameters, answering 400 itself when
// either is missing, malformed or out of range.
func (h *Surface) pair(w http.ResponseWriter, r *http.Request) (u, v graph.V, ok bool) {
	u, err := h.vertexParam(r, "u")
	if err == nil {
		v, err = h.vertexParam(r, "v")
	}
	if err != nil {
		h.Error(w, http.StatusBadRequest, err.Error())
		return 0, 0, false
	}
	return u, v, true
}

func (h *Surface) handleConnected(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, v, ok := h.pair(w, r)
	if !ok {
		return
	}
	connected, err := h.b.Connected(u, v)
	if err != nil {
		h.fail(w, err)
		return
	}
	WriteJSON(w, map[string]any{"u": u, "v": v, "connected": connected})
	h.readLat.Observe(time.Since(start))
}

func (h *Surface) handleCensus(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	top := 10
	if raw := r.URL.Query().Get("top"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k < 0 {
			h.Error(w, http.StatusBadRequest, fmt.Sprintf("bad top %q", raw))
			return
		}
		top = k
	}
	var vertices, components int
	var census []Component
	var edges int64
	err := h.b.ComponentSizes(func(sizes []int32, e int64) {
		vertices, edges = len(sizes), e
		components, census = topComponents(sizes, top)
	})
	if err != nil {
		h.fail(w, err)
		return
	}
	WriteJSON(w, map[string]any{
		"vertices":   vertices,
		"components": components,
		"edges":      edges,
		"top":        census,
	})
	h.readLat.Observe(time.Since(start))
}

// handleExplain answers "why are u and v connected" in three shapes:
// a witness path with its hop count; connected with no witness and a
// reason (never an invented path); or not connected, witness null.
func (h *Surface) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, v, ok := h.pair(w, r)
	if !ok {
		return
	}
	connected, hops, gap, err := h.b.Explain(u, v)
	if err != nil {
		h.fail(w, err)
		return
	}
	body := map[string]any{"u": u, "v": v, "connected": connected, "witness": nil}
	switch {
	case connected && !gap:
		body["witness"] = hops
		body["hops"] = len(hops)
	case connected:
		body["reason"] = noWitness
	}
	WriteJSON(w, body)
	h.readLat.Observe(time.Since(start))
}

func (h *Surface) handleEdges(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req edgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEdgesBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		h.Error(w, code, "bad body: "+err.Error())
		return
	}
	var edges []graph.Edge
	switch {
	case req.Edges != nil:
		if req.U != nil || req.V != nil {
			h.Error(w, http.StatusBadRequest, `provide either "u"/"v" or "edges", not both`)
			return
		}
		edges = make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			if len(e) != 2 {
				h.Error(w, http.StatusBadRequest,
					fmt.Sprintf("bad body: edges[%d] must be a [u,v] pair, got length %d", i, len(e)))
				return
			}
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
	case req.U != nil && req.V != nil:
		edges = []graph.Edge{{U: *req.U, V: *req.V}}
	default:
		h.Error(w, http.StatusBadRequest, `provide "u" and "v", or "edges"`)
		return
	}
	n := uint32(h.b.NumVertices())
	for _, e := range edges {
		if e.U >= n || e.V >= n {
			h.Error(w, http.StatusBadRequest,
				fmt.Sprintf("edge {%d,%d} out of range (|V|=%d)", e.U, e.V, n))
			return
		}
	}
	ack, err := h.b.SubmitEdges(edges)
	if err != nil {
		h.fail(w, err)
		return
	}
	body := map[string]any{"accepted": ack.Accepted, "merged": ack.Merged}
	if ack.LSN > 0 {
		body["lsn"] = ack.LSN
	}
	WriteJSON(w, body)
	h.writeLat.Observe(time.Since(start))
}

func (h *Surface) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(h.started)
	requests := map[string]int64{"bad": h.bad.Value(), "rejected": h.rejected.Value()}
	var total int64
	for name, c := range h.requests {
		requests[name] = c.Value()
		total += requests[name]
	}
	qps := 0.0
	if sec := uptime.Seconds(); sec > 0 {
		qps = float64(total) / sec
	}
	body := map[string]any{
		"uptime_seconds": uptime.Seconds(),
		"vertices":       h.b.NumVertices(),
		"edges_accepted": h.b.EdgesAccepted(),
		"qps":            qps,
		"requests":       requests,
		"read_latency":   h.readLat.Summary(),
		"write_latency":  h.writeLat.Summary(),
		"anomalies": map[string]any{
			"count":  h.anomaly.Count(),
			"recent": h.anomaly.Recent(),
		},
	}
	h.b.StatsSections(body)
	WriteJSON(w, body)
}

func (h *Surface) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"vertices": h.b.NumVertices()}
	body["status"] = h.b.Health(body)
	WriteJSON(w, body)
}
