package obs

import (
	"fmt"
	"io"
)

// Report is the digested phase tree of one traced run: the root wall
// time, the total edges handed to Link, and every recorded span. It
// marshals directly into the serve layer's /stats JSON and renders the
// per-phase breakdown table (the Fig 7-style phase decomposition) for
// the CLIs.
type Report struct {
	TotalNS int64  `json:"total_ns"`
	Edges   int64  `json:"edges"`
	Spans   []Span `json:"spans"`
}

// Report digests the tracer's current spans. TotalNS is the first root
// span's wall time; Edges sums the leaves (each arc is counted in
// exactly one leaf phase).
func (t *Tracer) Report() *Report {
	spans := t.Spans()
	r := &Report{Spans: spans}
	hasChild := childMap(spans)
	for _, s := range spans {
		if s.Parent == -1 && r.TotalNS == 0 {
			r.TotalNS = s.DurNS
		}
		if !hasChild[s.ID] {
			r.Edges += s.Stats.Edges
		}
	}
	return r
}

func childMap(spans []Span) map[SpanID]bool {
	hasChild := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	return hasChild
}

// BreakdownRow is one leaf phase of the breakdown table.
type BreakdownRow struct {
	Name       string  `json:"name"`
	DurNS      int64   `json:"dur_ns"`
	Edges      int64   `json:"edges"`
	NSPerEdge  float64 `json:"ns_per_edge"` // 0 when the phase handed no edges to Link
	Links      int64   `json:"links,omitempty"`
	CASRetries int64   `json:"cas_retries,omitempty"`
	CASPerLink float64 `json:"cas_per_link,omitempty"` // contention density: retries per Link call
	PctWall    float64 `json:"pct_wall"`
}

// Rows returns the leaf phases in execution order.
func (r *Report) Rows() []BreakdownRow {
	hasChild := childMap(r.Spans)
	rows := make([]BreakdownRow, 0, len(r.Spans))
	for _, s := range r.Spans {
		if hasChild[s.ID] {
			continue
		}
		row := BreakdownRow{
			Name: s.Name, DurNS: s.DurNS, Edges: s.Stats.Edges,
			Links: s.Stats.Links, CASRetries: s.Stats.CASRetries,
		}
		if s.Stats.Edges > 0 {
			row.NSPerEdge = float64(s.DurNS) / float64(s.Stats.Edges)
		}
		if s.Stats.Links > 0 {
			row.CASPerLink = float64(s.Stats.CASRetries) / float64(s.Stats.Links)
		}
		if r.TotalNS > 0 {
			row.PctWall = 100 * float64(s.DurNS) / float64(r.TotalNS)
		}
		rows = append(rows, row)
	}
	return rows
}

// breakdownNameWidth fixes the phase column's width: wide enough for
// every phase constant in obs.go, and constant so the columns sit in
// the same place whatever subset of phases a run exercised (the golden
// test pins the exact layout).
const breakdownNameWidth = 16 // len(PhaseEdgeBatch)

// WriteBreakdown renders the per-phase table: wall time, edges handed
// to Link, ns/edge, CAS retries per Link call, and share of total wall
// (mirroring the paper's Fig 7 phase decomposition). Column positions
// are fixed across runs.
func (r *Report) WriteBreakdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-*s  %14s  %12s  %9s  %9s  %7s\n",
		breakdownNameWidth, "phase", "wall", "edges", "ns/edge", "cas/link", "% wall"); err != nil {
		return err
	}
	var links, retries int64
	for _, row := range r.Rows() {
		nsEdge, edges := "-", "-"
		if row.Edges > 0 {
			nsEdge = fmt.Sprintf("%.2f", row.NSPerEdge)
			edges = fmt.Sprintf("%d", row.Edges)
		}
		casLink := "-"
		if row.Links > 0 {
			casLink = fmt.Sprintf("%.3f", row.CASPerLink)
		}
		links += row.Links
		retries += row.CASRetries
		if _, err := fmt.Fprintf(w, "%-*s  %12dns  %12s  %9s  %9s  %6.1f%%\n",
			breakdownNameWidth, row.Name, row.DurNS, edges, nsEdge, casLink, row.PctWall); err != nil {
			return err
		}
	}
	totalNsEdge, totalCasLink := "-", "-"
	if r.Edges > 0 {
		totalNsEdge = fmt.Sprintf("%.2f", float64(r.TotalNS)/float64(r.Edges))
	}
	if links > 0 {
		totalCasLink = fmt.Sprintf("%.3f", float64(retries)/float64(links))
	}
	_, err := fmt.Fprintf(w, "%-*s  %12dns  %12d  %9s  %9s  %6.1f%%\n",
		breakdownNameWidth, "TOTAL", r.TotalNS, r.Edges, totalNsEdge, totalCasLink, 100.0)
	return err
}
