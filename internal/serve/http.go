package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEdgesBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		h.Error(w, code, "bad body: "+err.Error())
		return
	}
	edges, err := scanEdges(body)
	if err != nil {
		h.Error(w, http.StatusBadRequest, err.Error())
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
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendAck(body[:0], ack))
	h.writeLat.Observe(time.Since(start))
}

// appendAck appends the POST /edges ack {"accepted":A,"lsn":L,"merged":M}
// and a newline to b, leaving lsn out when it is 0: the bytes
// json.Encoder writes for the same map, without reflection.
func appendAck(b []byte, ack Ack) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(ack.Accepted), 10)
	if ack.LSN > 0 {
		b = append(b, `,"lsn":`...)
		b = strconv.AppendUint(b, ack.LSN, 10)
	}
	b = append(b, `,"merged":`...)
	b = strconv.AppendInt(b, ack.Merged, 10)
	return append(b, "}\n"...)
}

// errBothForms and errNeitherForm answer a body that names both edge
// forms, or neither.
var (
	errBothForms   = errors.New(`provide either "u"/"v" or "edges", not both`)
	errNeitherForm = errors.New(`provide "u" and "v", or "edges"`)
)

// scanEdges reads a POST /edges body, either a single edge
// {"u":1,"v":2} or a bulk batch {"edges":[[1,2],[3,4],...]}, and returns
// its edges or the error to answer with 400.
//
// A body is JSON (RFC 8259), read in one pass without reflection. It
// accepts exactly the bodies encoding/json decoded into the request
// struct this replaced, with two differences: a key must be
// byte-exactly "u", "v" or "edges" (encoding/json also matched keys
// after unescaping or case folding), and a body over maxEdgesBody is
// refused whole. Like encoding/json it reads one value and ignores the
// bytes after it, reads a null member as absent, and lets a repeated
// member's last occurrence win. A coordinate is an integer
// 0|[1-9][0-9]* of at most 2^32−1, or null. A null coordinate keeps the
// value encoding/json's [][]uint32 held at that position: zero, unless
// an earlier "edges" member of the same body set it.
func scanEdges(body []byte) ([]graph.Edge, error) {
	s := &edgeScanner{b: body, bad: -1}
	var u, v uint32
	var haveU, haveV, haveEdges bool
	s.space()
	_, null, err := s.seq('{', '}', func(int) error {
		key, err := s.key()
		if err != nil {
			return err
		}
		s.space()
		if !s.take(':') {
			return s.fail(`':'`)
		}
		s.space()
		switch key {
		case `"u"`:
			haveU, err = s.coordinate(&u)
		case `"v"`:
			haveV, err = s.coordinate(&v)
		default:
			haveEdges, err = s.edges()
		}
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case null:
		// encoding/json decodes a null body into the empty request.
		return nil, errNeitherForm
	case haveEdges && (haveU || haveV):
		return nil, errBothForms
	case haveEdges && s.bad >= 0:
		return nil, fmt.Errorf("bad body: edges[%d] must be a [u,v] pair, got length %d", s.bad, s.badLen)
	case haveEdges:
		return s.mem[:s.n], nil
	case haveU && haveV:
		return []graph.Edge{{U: u, V: v}}, nil
	}
	return nil, errNeitherForm
}

// edgeScanner is scanEdges' cursor over one body.
type edgeScanner struct {
	b []byte
	i int
	// mem holds, at each index any "edges" member reached since the
	// last null or [] one, the first two coordinates encoding/json's
	// [][]uint32 held there. n is the last member's length, bad its first
	// pair that is not [u,v] (-1 for none) and badLen that pair's length.
	mem         []graph.Edge
	n           int
	bad, badLen int
}

// space skips RFC 8259 whitespace.
func (s *edgeScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next byte.
func (s *edgeScanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes word if the body continues with it.
func (s *edgeScanner) lit(word string) bool {
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// fail reports the byte at the cursor where want was expected.
func (s *edgeScanner) fail(want string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("bad body: unexpected end at byte %d, want %s", s.i, want)
	}
	return fmt.Errorf("bad body: unexpected %q at byte %d, want %s", s.b[s.i], s.i, want)
}

// seq reads null, or an array or object from open to its matching
// close, calling elem with each element's index. It returns the element
// count and whether it read null.
func (s *edgeScanner) seq(open, close byte, elem func(i int) error) (n int, null bool, err error) {
	if s.lit("null") {
		return 0, true, nil
	}
	if !s.take(open) {
		return 0, false, s.fail(fmt.Sprintf("%q or null", open))
	}
	s.space()
	if s.take(close) {
		return 0, false, nil
	}
	for ; ; n++ {
		if err := elem(n); err != nil {
			return 0, false, err
		}
		s.space()
		if s.take(close) {
			return n + 1, false, nil
		}
		if !s.take(',') {
			return 0, false, s.fail(fmt.Sprintf("',' or %q", close))
		}
		s.space()
	}
}

// key reads an object key, which must be "u", "v" or "edges", and
// returns it with its quotes.
func (s *edgeScanner) key() (string, error) {
	for _, k := range [...]string{`"u"`, `"v"`, `"edges"`} {
		if s.lit(k) {
			return k, nil
		}
	}
	if s.i < len(s.b) && s.b[s.i] == '"' {
		return "", fmt.Errorf(`bad body: unknown key at byte %d (keys are exactly "u", "v" and "edges")`, s.i)
	}
	return "", s.fail("a key")
}

// coordinate reads an integer into *dst, or null, which leaves *dst as
// it was. It reports whether it read an integer.
func (s *edgeScanner) coordinate(dst *uint32) (bool, error) {
	if s.lit("null") {
		return false, nil
	}
	start := s.i
	if s.take('0') {
		*dst = 0
		return true, nil
	}
	var x uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		if x = x*10 + uint64(s.b[s.i]-'0'); x > math.MaxUint32 {
			return false, fmt.Errorf("bad body: number at byte %d is above %d", start, uint32(math.MaxUint32))
		}
	}
	if s.i == start {
		return false, s.fail("an integer or null")
	}
	*dst = uint32(x)
	return true, nil
}

// edges reads an "edges" value, null or an array of pairs, into s.mem
// and s.n, and reports whether it was an array. A null or empty array
// starts the memory over, as encoding/json's fresh slice did.
func (s *edgeScanner) edges() (bool, error) {
	s.bad = -1
	n, null, err := s.seq('[', ']', func(i int) error {
		if i == len(s.mem) {
			s.mem = append(s.mem, graph.Edge{})
		}
		k, err := s.pair(&s.mem[i])
		if k != 2 && s.bad < 0 {
			s.bad, s.badLen = i, k
		}
		return err
	})
	if n == 0 {
		s.mem = s.mem[:0]
	}
	s.n = n
	return !null, err
}

// pair reads one element of "edges", null or an array of coordinates,
// into e's first two coordinates and returns its length. A null or
// empty array zeroes e, as encoding/json's fresh inner slice did.
func (s *edgeScanner) pair(e *graph.Edge) (int, error) {
	var rest uint32
	k, _, err := s.seq('[', ']', func(k int) error {
		dst := &rest
		switch k {
		case 0:
			dst = &e.U
		case 1:
			dst = &e.V
		}
		_, err := s.coordinate(dst)
		return err
	})
	if k == 0 {
		*e = graph.Edge{}
	}
	return k, err
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
