package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"afforest/internal/core"
	"afforest/internal/graph"
)

// postEdge inserts one edge and returns the decoded response body.
func postEdge(t *testing.T, url string, u, v int) map[string]any {
	t.Helper()
	resp, err := http.Post(url+"/edges", "application/json",
		strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges: status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// sseClient reads an /events stream, decoding data frames and tracking
// the last id line, until the stream ends or maxEvents arrive. It
// reports failures with t.Error, so goroutines other than the test's
// own may call it.
func sseClient(t *testing.T, url string, lastID string, maxEvents int) (events []MergeEvent, finalID string) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/events", nil)
	if err != nil {
		t.Error(err)
		return nil, lastID
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return nil, lastID
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /events: status %d", resp.StatusCode)
		return nil, lastID
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("GET /events: content-type %q", ct)
		return nil, lastID
	}
	sc := bufio.NewScanner(resp.Body)
	finalID = lastID
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			finalID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			var ev MergeEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("bad event frame %q: %v", line, err)
				return events, finalID
			}
			events = append(events, ev)
			if len(events) >= maxEvents {
				return events, finalID
			}
		}
	}
	return events, finalID
}

// TestEventsStreamDeliversMerges: every component merge performed by
// the write path arrives on an open /events stream with winner < loser
// (roots are component minima) and the WAL's LSN attached.
func TestEventsStreamDeliversMerges(t *testing.T) {
	srv, err := Open(core.NewIncremental(64), 0, Config{WALDir: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	const merges = 10
	var wg sync.WaitGroup
	wg.Add(1)
	var got []MergeEvent
	go func() {
		defer wg.Done()
		got, _ = sseClient(t, ts.URL, "", merges)
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber register
	for i := 0; i < merges; i++ {
		body := postEdge(t, ts.URL, 2*i, 2*i+1)
		if body["lsn"] == nil || body["lsn"].(float64) == 0 {
			t.Fatalf("POST /edges response missing lsn: %v", body)
		}
	}
	wg.Wait()
	if len(got) != merges {
		t.Fatalf("received %d events, want %d", len(got), merges)
	}
	seen := map[uint64]bool{}
	causal := map[[2]graph.V]bool{}
	for _, ev := range got {
		if ev.Winner >= ev.Loser {
			t.Fatalf("event winner %d not below loser %d", ev.Winner, ev.Loser)
		}
		if ev.LSN == 0 {
			t.Fatalf("event missing lsn: %+v", ev)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		causal[[2]graph.V{ev.U, ev.V}] = true
	}
	// Every event carries its causal input edge — the exact submitted
	// edge whose CAS merged, not the union-find's internal roots.
	for i := 0; i < merges; i++ {
		if !causal[[2]graph.V{graph.V(2 * i), graph.V(2*i + 1)}] {
			t.Fatalf("no event carried causal edge {%d,%d}; saw %v", 2*i, 2*i+1, causal)
		}
	}
}

// TestEventsResumeFromLastID: a client that disconnects and reconnects
// with Last-Event-ID receives every merge it missed from the ring.
func TestEventsResumeFromLastID(t *testing.T) {
	srv, err := Open(core.NewIncremental(256), 0, Config{WALDir: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// First phase: 5 merges with a live client, which then disconnects.
	var wg sync.WaitGroup
	wg.Add(1)
	var first []MergeEvent
	var lastID string
	go func() {
		defer wg.Done()
		first, lastID = sseClient(t, ts.URL, "", 5)
	}()
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		postEdge(t, ts.URL, 2*i, 2*i+1)
	}
	wg.Wait()
	if lastID == "" {
		t.Fatal("stream carried no id lines")
	}

	// Second phase: 5 more merges with nobody listening.
	for i := 5; i < 10; i++ {
		postEdge(t, ts.URL, 2*i, 2*i+1)
	}

	// Reconnect with Last-Event-ID: the ring replays the missed merges.
	resumed, _ := sseClient(t, ts.URL, lastID, 5)
	if len(resumed) != 5 {
		t.Fatalf("resumed %d events, want 5", len(resumed))
	}
	firstLSN := first[len(first)-1].LSN
	for _, ev := range resumed {
		if ev.LSN <= firstLSN {
			t.Fatalf("resume replayed lsn %d at or below Last-Event-ID %d", ev.LSN, firstLSN)
		}
		// Ring-replayed frames keep their causal edge too: resumed events
		// are exactly the second-phase submissions {2i, 2i+1}, i in 5..9.
		if ev.V != ev.U+1 || ev.U%2 != 0 || ev.U < 10 {
			t.Fatalf("resumed event carries wrong causal edge {%d,%d}", ev.U, ev.V)
		}
	}
}

// TestEventsResumeAcrossRingWrap publishes 3×eventRingCap+7 events in
// LSN runs of one to three, so the ring has wrapped three times and its
// oldest event sits mid-buffer. A resume from an LSN inside the ring
// gets exactly the later events, in seq order across the wrap point,
// and one from an LSN older than the ring gets the whole ring, oldest
// first.
func TestEventsResumeAcrossRingWrap(t *testing.T) {
	h := newEventHub()
	var all []MergeEvent
	for lsn := uint64(1); len(all) < 3*eventRingCap+7; lsn++ {
		run := make([]MergeEvent, min(1+int(lsn%3), 3*eventRingCap+7-len(all)))
		for i := range run {
			run[i] = MergeEvent{LSN: lsn, U: graph.V(len(all) + i), V: graph.V(lsn)}
		}
		h.publish(run)
		all = append(all, run...)
	}
	// publish numbered the events, so kept is in seq order.
	kept := all[len(all)-eventRingCap:]
	check := func(after uint64, want []MergeEvent) {
		t.Helper()
		sub, backlog := h.subscribe(after)
		defer h.unsubscribe(sub)
		if !slices.Equal(backlog, want) {
			t.Fatalf("resume after lsn %d: %d events, want %d from seq %d to %d",
				after, len(backlog), len(want), want[0].Seq, want[len(want)-1].Seq)
		}
	}
	// Everything past the run of the event 100 into the ring: the ring's
	// oldest event sits at index 7 of its storage, so this backlog
	// crosses the point where the storage wraps.
	mid := kept[100].LSN
	from := slices.IndexFunc(kept, func(ev MergeEvent) bool { return ev.LSN > mid })
	check(mid, kept[from:])
	check(kept[0].LSN-1, kept)
	check(1, kept)
}

// TestEventsPublishAllocatesNothing: once the ring is full, a publish
// with no subscriber overwrites the oldest events in place.
func TestEventsPublishAllocatesNothing(t *testing.T) {
	h := newEventHub()
	batch := make([]MergeEvent, 9)
	for i := 0; i < eventRingCap; i += len(batch) {
		h.publish(batch)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.publish(batch) }); allocs != 0 {
		t.Fatalf("publish of %d events into a full ring: %v allocations, want 0", len(batch), allocs)
	}
}

// TestEventsSlowClientEviction: a subscriber that stops reading is
// evicted once its queue fills — the write path never blocks on it —
// and the eviction is visible in /stats.
func TestEventsSlowClientEviction(t *testing.T) {
	srv, err := Open(core.NewIncremental(1<<14), 0, Config{WALDir: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// A raw subscriber that never reads its channel, with a tiny queue:
	// a few unread merges evict it.
	srv.hub.queueLen = 4
	sub, _ := srv.hub.subscribe(0)
	if sub == nil {
		t.Fatal("subscribe refused")
	}

	// Push well past the queue bound; each edge is one merge event.
	for i := 0; i < 64; i++ {
		postEdge(t, ts.URL, 2*i, 2*i+1)
	}

	select {
	case _, open := <-drainUntilClosed(sub.ch):
		_ = open
	case <-time.After(5 * time.Second):
		t.Fatal("slow subscriber was not evicted")
	}
	_, evictions, live := srv.hub.snapshot()
	if evictions == 0 {
		t.Fatal("eviction not counted")
	}
	if live != 0 {
		t.Fatalf("%d subscribers still live after eviction", live)
	}
	// The write path stayed healthy throughout.
	if got := srv.EdgesAccepted(); got != 64 {
		t.Fatalf("accepted %d edges, want 64", got)
	}
}

// drainUntilClosed consumes ch until it closes, then returns a closed
// channel (so a select can wait on "fully drained and closed").
func drainUntilClosed(ch chan MergeEvent) chan struct{} {
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	return done
}

// TestEventsCloseDuringDrain: subscribers with open streams see their
// streams end cleanly when the server drains, after the last flushed
// batch's events.
func TestEventsCloseDuringDrain(t *testing.T) {
	srv, err := Open(core.NewIncremental(64), 0, Config{WALDir: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	streamDone := make(chan []MergeEvent, 1)
	go func() {
		// Ask for more events than will arrive: the return happens only
		// because the server closes the stream.
		evs, _ := sseClient(t, ts.URL, "", 1<<30)
		streamDone <- evs
	}()
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		postEdge(t, ts.URL, 2*i, 2*i+1)
	}
	srv.Close()
	select {
	case evs := <-streamDone:
		if len(evs) != 4 {
			t.Fatalf("stream ended with %d events, want all 4 pre-drain merges", len(evs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on server drain")
	}
	// New subscriptions are refused while drained.
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain GET /events: status %d, want 503", resp.StatusCode)
	}
}

// TestWALSurvivesRestart is the serve-layer durability loop: write
// through one server with a WAL, tear it down WITHOUT a snapshot,
// restart from the log alone, and check every acknowledged edge is
// reflected. Then snapshot + truncate and restart again from both.
func TestWALSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	walDir := dir + "/wal"
	cfg := Config{WALDir: walDir}

	srv, err := Open(core.NewIncremental(100), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	for i := 0; i < 20; i++ {
		postEdge(t, ts.URL, i, i+40)
	}
	ts.Close()
	srv.Close()

	// Restart purely from the log: the acked writes must be there.
	srv2, err := Open(core.NewIncremental(100), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.walReplay == nil || srv2.walReplay.Records != 20 {
		t.Fatalf("restart replayed %+v, want 20 records", srv2.walReplay)
	}
	if srv2.walReplay.Diverged {
		t.Fatalf("clean restart diverged: %s", srv2.walReplay.Divergence)
	}
	for i := 0; i < 20; i++ {
		if !srv2.inc.Connected(graph.V(i), graph.V(i+40)) {
			t.Fatalf("edge {%d,%d} lost across restart", i, i+40)
		}
	}
	if got := srv2.EdgesAccepted(); got != 20 {
		t.Fatalf("restart edge count %d, want 20", got)
	}

	// Snapshot with watermark; restart replays only past it.
	snapPath := dir + "/pi.snap"
	ts2 := httptest.NewServer(srv2)
	for i := 20; i < 25; i++ {
		postEdge(t, ts2.URL, i, i+40)
	}
	ts2.Close()
	srv2.Close()
	if err := srv2.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	srv3, err := Restore(snapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if srv3.walReplay.Records != 0 || srv3.walReplay.Skipped == 0 {
		t.Fatalf("post-snapshot restart replay %+v, want all records skipped", srv3.walReplay)
	}
	for i := 0; i < 25; i++ {
		if !srv3.inc.Connected(graph.V(i), graph.V(i+40)) {
			t.Fatalf("edge {%d,%d} lost across snapshot restart", i, i+40)
		}
	}
}
