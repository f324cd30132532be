package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// TimelineRow is one worker's digest of the recorder's retained window:
// how many events and chunks it ran, how long it was busy, what
// fraction of the window that busy time covers, and an ASCII occupancy
// bar ('#' where the worker ran at least one chunk in that time slice,
// '.' where it sat idle).
type TimelineRow struct {
	Worker int     `json:"worker"`
	Events int     `json:"events"`
	Chunks int     `json:"chunks"`
	BusyNS int64   `json:"busy_ns"`
	Util   float64 `json:"util"` // BusyNS over the window span, in [0,1]
	Bar    string  `json:"bar"`
}

// Timeline digests the per-worker rings into utilization rows. width is
// the occupancy bar's bucket count (<= 0 means 48). The window is the
// span from the earliest to the latest retained event across all rings;
// a recorder with no worker events returns rows with empty bars.
func (f *FlightRecorder) Timeline(width int) []TimelineRow {
	if width <= 0 {
		width = 48
	}
	type workerEvents struct {
		evs []FlightEvent
	}
	all := make([]workerEvents, f.workers)
	minTS, maxTS := int64(1<<62), int64(-1)
	span := func(ev FlightEvent) (lo, hi int64) {
		return ev.TS, ev.TS + ev.Dur
	}
	for w := 0; w < f.workers; w++ {
		evs, _ := f.rings[w].events()
		all[w].evs = evs
		for _, ev := range evs {
			lo, hi := span(ev)
			if lo < minTS {
				minTS = lo
			}
			if hi > maxTS {
				maxTS = hi
			}
		}
	}
	window := maxTS - minTS
	rows := make([]TimelineRow, f.workers)
	for w := range rows {
		row := TimelineRow{Worker: w, Events: len(all[w].evs)}
		busyBuckets := make([]bool, width)
		for _, ev := range all[w].evs {
			if ev.Kind != EvChunkClaim {
				continue
			}
			row.Chunks++
			row.BusyNS += ev.Dur
			if window <= 0 {
				continue
			}
			lo, hi := span(ev)
			b0 := int((lo - minTS) * int64(width) / (window + 1))
			b1 := int((hi - minTS) * int64(width) / (window + 1))
			for b := b0; b <= b1 && b < width; b++ {
				busyBuckets[b] = true
			}
		}
		if window > 0 {
			row.Util = float64(row.BusyNS) / float64(window)
			if row.Util > 1 {
				row.Util = 1 // overlapping chunk claims folded into one ring
			}
			var bar strings.Builder
			for _, busy := range busyBuckets {
				if busy {
					bar.WriteByte('#')
				} else {
					bar.WriteByte('.')
				}
			}
			row.Bar = bar.String()
		}
		rows[w] = row
	}
	return rows
}

// WriteTimeline renders the per-worker utilization table. width is the
// occupancy bar's bucket count (<= 0 means 48).
func (f *FlightRecorder) WriteTimeline(w io.Writer, width int) error {
	rows := f.Timeline(width)
	if _, err := fmt.Fprintf(w, "%-7s  %7s  %7s  %12s  %6s  timeline\n",
		"worker", "events", "chunks", "busy", "util"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%-7d  %7d  %7d  %10dns  %5.1f%%  %s\n",
			row.Worker, row.Events, row.Chunks, row.BusyNS, row.Util*100, row.Bar); err != nil {
			return err
		}
	}
	return nil
}

// --- cluster timeline ---

// ClusterLaneRow is one lane of the merged cluster timeline: one wire op
// aggregated per (trace, exchange round, shard). Round 0 holds the
// request-level ops (edges, query, labels); rounds >= 1 are the BSP
// exchange supersteps with their outbox/ingest/absorb lanes. NS is the
// router-observed RPC duration, SrvNS the shard-reported server-side
// duration for the same ops (zero when the shard dumps were not
// merged in). Frames, pairs, bytes, and merged counts are deterministic
// under a pinned replay; the two NS columns are not, which is why the
// canonical rendering drops them.
type ClusterLaneRow struct {
	Trace  uint64 `json:"trace"`
	Round  int    `json:"round"`
	Shard  int    `json:"shard"`
	Op     string `json:"op"`
	Frames int    `json:"frames"`
	Pairs  int64  `json:"pairs,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Merged int64  `json:"merged,omitempty"`
	NS     int64  `json:"ns,omitempty"`
	SrvNS  int64  `json:"srv_ns,omitempty"`
}

// wireOpOrder fixes the lane order within one (trace, round, shard):
// request-level ops first, then the exchange phases in superstep order.
var wireOpOrder = map[string]int{
	WireEdges:  0,
	WireQuery:  1,
	WireLabels: 2,
	WireOutbox: 3,
	WireIngest: 4,
	WireAbsorb: 5,
	WireFlight: 6,
}

// BuildClusterTimeline merges a flat span list — the router's client
// spans plus any shard-side server spans folded in over opFlight — into
// sorted lanes. Router client spans (Remote unset) carry the round the
// router assigned; shard server spans (Remote set) do not know their
// round, so the k-th server occurrence of an op per (trace, shard) is
// matched to the k-th client occurrence — exact because the router
// issues exactly one of each exchange op per shard per round and the
// shard serves its connection serially. The result is sorted by (trace,
// round, shard, op order), which is deterministic even though the
// cross-shard completion interleaving in the input is not.
func BuildClusterTimeline(spans []WireSpan) []ClusterLaneRow {
	type laneKey struct {
		trace uint64
		round int
		shard int
		op    string
	}
	type opKey struct {
		trace uint64
		shard int
		op    string
	}
	lanes := make(map[laneKey]*ClusterLaneRow)
	lane := func(k laneKey) *ClusterLaneRow {
		r := lanes[k]
		if r == nil {
			r = &ClusterLaneRow{Trace: k.trace, Round: k.round, Shard: k.shard, Op: k.op}
			lanes[k] = r
		}
		return r
	}
	clientRounds := make(map[opKey][]int)
	for _, sp := range spans {
		if sp.Remote {
			continue
		}
		if _, ok := wireOpOrder[sp.Name]; !ok {
			continue // grouping (exchange/round) and stage (decode/work/encode) spans
		}
		r := lane(laneKey{sp.Trace, sp.Round, sp.Shard, sp.Name})
		r.Frames++
		r.Pairs += sp.Pairs
		r.Bytes += sp.ReqBytes + sp.RespBytes
		r.Merged += sp.Merged
		r.NS += sp.DurNS
		k := opKey{sp.Trace, sp.Shard, sp.Name}
		clientRounds[k] = append(clientRounds[k], sp.Round)
	}
	seen := make(map[opKey]int)
	for _, sp := range spans {
		if !sp.Remote {
			continue
		}
		if _, ok := wireOpOrder[sp.Name]; !ok {
			continue
		}
		k := opKey{sp.Trace, sp.Shard, sp.Name}
		i := seen[k]
		seen[k]++
		round := sp.Round
		if rs := clientRounds[k]; i < len(rs) {
			round = rs[i]
		}
		lane(laneKey{sp.Trace, round, sp.Shard, sp.Name}).SrvNS += sp.DurNS
	}
	out := make([]ClusterLaneRow, 0, len(lanes))
	for _, r := range lanes {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return wireOpOrder[a.Op] < wireOpOrder[b.Op]
	})
	return out
}

// WriteClusterTimeline renders the merged lanes grouped per trace.
// Canonical drops the two wall-clock columns, leaving only
// replay-deterministic content — the mode the golden tests and anomaly
// snapshots pin byte-for-byte.
func WriteClusterTimeline(w io.Writer, rows []ClusterLaneRow, canonical bool) error {
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "no cluster traces recorded")
		return err
	}
	var curTrace uint64
	first := true
	for _, r := range rows {
		if first || r.Trace != curTrace {
			curTrace = r.Trace
			first = false
			if _, err := fmt.Fprintf(w, "trace %d\n", r.Trace); err != nil {
				return err
			}
			hdr := "  %5s  %5s  %-7s  %7s  %9s  %10s  %8s\n"
			args := []any{"round", "shard", "op", "frames", "pairs", "bytes", "merged"}
			if !canonical {
				hdr = "  %5s  %5s  %-7s  %7s  %9s  %10s  %8s  %12s  %12s\n"
				args = append(args, "ns", "srv_ns")
			}
			if _, err := fmt.Fprintf(w, hdr, args...); err != nil {
				return err
			}
		}
		row := "  %5d  %5d  %-7s  %7d  %9d  %10d  %8d\n"
		args := []any{r.Round, r.Shard, r.Op, r.Frames, r.Pairs, r.Bytes, r.Merged}
		if !canonical {
			row = "  %5d  %5d  %-7s  %7d  %9d  %10d  %8d  %12d  %12d\n"
			args = append(args, r.NS, r.SrvNS)
		}
		if _, err := fmt.Fprintf(w, row, args...); err != nil {
			return err
		}
	}
	return nil
}
