package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/wal"
)

// sizedUnionFind is the serial oracle for the live read path: roots are
// component minima, so its labels are the ones the server reports.
type sizedUnionFind struct{ parent, size []int }

func newSizedUnionFind(n int) *sizedUnionFind {
	u := &sizedUnionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i], u.size[i] = i, 1
	}
	return u
}

func (u *sizedUnionFind) find(x int) int {
	for u.parent[x] != x {
		x = u.parent[x]
	}
	return x
}

func (u *sizedUnionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// census lists every component in /census order.
func (u *sizedUnionFind) census() []Component {
	var out []Component
	for v := range u.parent {
		if u.parent[v] == v {
			out = append(out, Component{Label: graph.V(v), Size: u.size[v]})
		}
	}
	slices.SortFunc(out, func(a, b Component) int {
		return cmp.Or(cmp.Compare(b.Size, a.Size), cmp.Compare(a.Label, b.Label))
	})
	return out
}

// fetchJSON GETs url and decodes a 200 body into out. It reports a
// failure with t.Error, so goroutines other than the test's own may
// call it.
func fetchJSON(t *testing.T, url string, out any) bool {
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d", url, resp.StatusCode)
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Errorf("GET %s: %v", url, err)
		return false
	}
	return true
}

type censusAnswer struct {
	Vertices   int         `json:"vertices"`
	Components int         `json:"components"`
	Top        []Component `json:"top"`
}

type componentAnswer struct {
	V     graph.V `json:"v"`
	Label graph.V `json:"label"`
	Size  int     `json:"size"`
}

// TestLiveReadsMatchSerialOracle is the property test for the live
// read path. Concurrent HTTP writers stream random edges into a
// WAL-backed server that starts from singletons, while readers sample
// /census and /component and an /events subscriber records every
// merge. Replayed against a serial union-find in LSN order:
//   - each event joins two distinct current roots, with their exact
//     sizes, and a batch's events rebuild that batch's partition;
//   - acked merges add up to the events, and to n minus the final
//     component count;
//   - the final /census and every /component match the oracle over all
//     posted edges;
//   - every answer sampled mid-stream is the oracle's state after some
//     whole batch (an LSN prefix).
func TestLiveReadsMatchSerialOracle(t *testing.T) {
	const n = 255 // at most 254 merges: the subscriber's queue never fills
	walDir := t.TempDir() + "/wal"
	srv, err := Open(core.NewIncremental(n), 0, Config{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	streamed := make(chan []MergeEvent, 1)
	go func() {
		evs, _ := sseClient(t, ts.URL, "", 1<<30) // ends when the server drains
		streamed <- evs
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, live := srv.hub.snapshot(); live == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/events subscriber never registered")
		}
	}

	const writers, posts = 4, 30
	var (
		mu       sync.Mutex
		merged   int
		censuses []censusAnswer
		comps    []componentAnswer
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < posts; i++ {
				pairs := make([][2]int, 1+rng.Intn(4))
				for j := range pairs {
					pairs[j] = [2]int{rng.Intn(n), rng.Intn(n)}
				}
				body, _ := json.Marshal(map[string]any{"edges": pairs})
				resp, err := http.Post(ts.URL+"/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				var ack struct{ Accepted, Merged int }
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || ack.Accepted != len(pairs) {
					t.Errorf("writer %d: status %d, ack %+v for %d edges (%v)", w, resp.StatusCode, ack, len(pairs), err)
					return
				}
				mu.Lock()
				merged += ack.Merged
				mu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var cs censusAnswer
				var c componentAnswer
				if !fetchJSON(t, fmt.Sprintf("%s/census?top=%d", ts.URL, n), &cs) ||
					!fetchJSON(t, fmt.Sprintf("%s/component?v=%d", ts.URL, rng.Intn(n)), &c) {
					return
				}
				mu.Lock()
				censuses = append(censuses, cs)
				comps = append(comps, c)
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Final answers, read before the drain with no Refresh.
	var final censusAnswer
	getJSON(t, fmt.Sprintf("%s/census?top=%d", ts.URL, n), &final)
	finalComps := make([]componentAnswer, n)
	for v := range finalComps {
		getJSON(t, fmt.Sprintf("%s/component?v=%d", ts.URL, v), &finalComps[v])
	}
	srv.Close()
	var events []MergeEvent
	select {
	case events = <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("/events stream did not end on drain")
	}

	// The oracle's state after every LSN prefix, from the log itself.
	oracle := newSizedUnionFind(n)
	type state struct {
		census []Component
		labels []int
	}
	snap := func() state {
		labels := make([]int, n)
		for v := range labels {
			labels[v] = oracle.find(v)
		}
		return state{census: oracle.census(), labels: labels}
	}
	prefixes := map[uint64]state{0: snap()}
	posted := 0
	if _, err := wal.Replay(nil, walDir, 0, func(lsn wal.LSN, edges []graph.Edge) error {
		for _, e := range edges {
			oracle.union(int(e.U), int(e.V))
		}
		posted += len(edges)
		prefixes[uint64(lsn)] = snap()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := srv.EdgesAccepted(); int64(posted) != want {
		t.Fatalf("wal holds %d edges, server accepted %d", posted, want)
	}
	end := snap()

	// Events, in seq order, through a serial union-find.
	replay := newSizedUnionFind(n)
	checkBatch := func(lsn uint64) {
		want := prefixes[lsn]
		for v := range want.labels {
			if got := replay.find(v); got != want.labels[v] {
				t.Fatalf("events through lsn %d put %d under root %d, the log prefix says %d", lsn, v, got, want.labels[v])
			}
		}
	}
	for i, ev := range events {
		if i > 0 && (ev.Seq <= events[i-1].Seq || ev.LSN < events[i-1].LSN) {
			t.Fatalf("event %d (seq %d, lsn %d) out of order after seq %d, lsn %d", i, ev.Seq, ev.LSN, events[i-1].Seq, events[i-1].LSN)
		}
		if i > 0 && ev.LSN != events[i-1].LSN {
			checkBatch(events[i-1].LSN)
		}
		w, l := int(ev.Winner), int(ev.Loser)
		if w == l || replay.find(w) != w || replay.find(l) != l {
			t.Fatalf("event %+v: winner and loser are not distinct current roots", ev)
		}
		if ev.WinnerSize != replay.size[w] || ev.LoserSize != replay.size[l] {
			t.Fatalf("event %+v: sizes %d/%d, current roots have %d/%d", ev, ev.WinnerSize, ev.LoserSize, replay.size[w], replay.size[l])
		}
		replay.union(w, l)
	}
	if len(events) > 0 {
		checkBatch(events[len(events)-1].LSN)
	}
	if got, want := len(events), n-len(end.census); merged != got || got != want {
		t.Fatalf("acked merges %d, events %d, n - components %d: all three must agree", merged, got, want)
	}

	// Final reads equal the oracle over every posted edge.
	if final.Vertices != n || final.Components != len(end.census) || !slices.Equal(final.Top, end.census) {
		t.Fatalf("final /census = %d vertices, %d components, top %v; oracle %d components, %v",
			final.Vertices, final.Components, final.Top, len(end.census), end.census)
	}
	oracleSize := map[graph.V]int{}
	for _, c := range end.census {
		oracleSize[c.Label] = c.Size
	}
	for v, c := range finalComps {
		if want := graph.V(end.labels[v]); c.Label != want || c.Size != oracleSize[want] {
			t.Fatalf("final /component?v=%d = label %d size %d, oracle %d size %d", v, c.Label, c.Size, want, oracleSize[want])
		}
	}

	// Every mid-stream answer is some LSN prefix's state.
	somePrefix := func(match func(state) bool) bool {
		for _, p := range prefixes {
			if match(p) {
				return true
			}
		}
		return false
	}
	for _, cs := range censuses {
		if !somePrefix(func(p state) bool { return cs.Components == len(p.census) && slices.Equal(cs.Top, p.census) }) {
			t.Fatalf("sampled /census (%d components, top %v) is no batch prefix's census", cs.Components, cs.Top)
		}
	}
	for _, c := range comps {
		if !somePrefix(func(p state) bool {
			i := slices.IndexFunc(p.census, func(x Component) bool { return x.Label == c.Label })
			return int(c.Label) == p.labels[c.V] && i >= 0 && p.census[i].Size == c.Size
		}) {
			t.Fatalf("sampled /component %+v matches no batch prefix", c)
		}
	}
	t.Logf("%d batches, %d events, %d sampled censuses, %d sampled components",
		len(prefixes)-1, len(events), len(censuses), len(comps))
}
