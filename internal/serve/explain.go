package serve

import (
	"errors"
	"net/http"
	"time"

	"afforest/internal/graph"
	"afforest/internal/provenance"
)

// The provenance query surface:
//
//	GET /explain?u=&v=       witness path of real input edges, LSN-stamped
//	GET /history?v=          component merge timeline (queryable /events)
//	GET /debug/provenance    forest dump; ?canonical=1 for golden tests
//
// All three answer 404 with a hint when the server runs without
// cfg.Provenance — the forest simply does not exist, and pretending
// "not connected" would be wrong. /explain is the shared Surface's
// route, which checks its vertices first, so a malformed pair is a 400
// there as on a cluster.

// ErrNoProvenance answers the provenance routes when no forest is
// installed: on a single node, and from a cluster router whose shard
// reports that it records none.
var ErrNoProvenance = &StatusError{Code: http.StatusNotFound,
	Err: errors.New("provenance is disabled; start ccserve -provenance, or every ccshard -provenance behind ccserve -cluster, to record witness paths")}

// Explain answers from the merge forest: a witness path of recorded
// input edges between u and v. gap reports a pair π connects that the
// forest does not: the connection predates provenance (bootstrap
// labels, edges streamed before it was enabled). Each witness found
// feeds the afforest_witness_depth gauge and the explain_depth_blowup
// rule.
func (s *Server) Explain(u, v graph.V) (bool, []provenance.Hop, bool, error) {
	if s.prov == nil {
		return false, nil, false, ErrNoProvenance
	}
	hops, ok := s.prov.Explain(u, v)
	connected := s.inc.Connected(u, v)
	if ok {
		s.provDepth.Set(float64(len(hops)))
		s.cfg.anom.ObserveWitnessDepth(len(hops))
	}
	return connected, hops, connected && !ok, nil
}

// handleHistory answers "how did v's component form": every recorded
// merge now inside v's component, in recording order, with pre-merge
// sizes — the same records /events streamed live, queryable after the
// fact.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.prov == nil {
		s.api.fail(w, ErrNoProvenance)
		return
	}
	v, err := s.api.vertexParam(r, "v")
	if err != nil {
		s.api.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	recs := s.prov.History(v)
	WriteJSON(w, map[string]any{
		"v":       v,
		"count":   len(recs),
		"records": recs,
	})
	s.api.readLat.Observe(time.Since(start))
}

// handleProvenanceDump serves the forest dump. ?canonical=1 restricts
// the output to replay-deterministic state (golden tests compare two
// boots from one WAL image byte-for-byte).
func (s *Server) handleProvenanceDump(w http.ResponseWriter, r *http.Request) {
	if s.prov == nil {
		s.api.fail(w, ErrNoProvenance)
		return
	}
	canonical := r.URL.Query().Get("canonical") == "1"
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.prov.Dump(canonical))
}
