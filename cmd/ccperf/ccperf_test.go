package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"afforest/internal/graph"
	"afforest/internal/provenance"
	"afforest/internal/testkit"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int64
	Failed    int64
	Metrics   map[string]valueOfUnit
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsSmoke runs every workload small and short, traced, and
// checks the result line: correct, something attempted, and exactly the
// per-layer metrics the benchmark declares.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"batch", "ingest", "query", "cluster"} {
		t.Run(wl, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", wl, "-seed", "3", "-seconds", "1", "-scale", "12",
				"-trace", "1", "-dir", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Fatalf("result %+v", r)
			}
			if len(r.Metrics) != len(perLayer) {
				t.Fatalf("traced run reported %d metrics, want the %d per-layer ones", len(r.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
		})
	}
}

// TestUntracedReportsEndToEnd checks that an untraced run reports
// exactly the end-to-end metrics, each positive.
func TestUntracedReportsEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "cluster", "-seconds", "0.5", "-scale", "12", "-dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	r := lastLine(t, stdout.String())
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("got %d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := r.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "batch", "-trace", "2"},
		{"-workload", "batch", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestChecksRejectCorruption feeds the correctness checks wrong labels
// and forged witnesses.
func TestChecksRejectCorruption(t *testing.T) {
	want := []graph.V{0, 0, 2, 2, 4}
	if err := checkLabels("ok", append([]graph.V(nil), want...), want); err != nil {
		t.Fatalf("equal labels rejected: %v", err)
	}
	bad := append([]graph.V(nil), want...)
	bad[3] = 0 // merges two components the oracle keeps apart
	if checkLabels("merged", bad, want) == nil {
		t.Error("over-merged labels accepted")
	}
	if checkLabels("short", want[:4], want) == nil {
		t.Error("truncated labels accepted")
	}

	edges := testkit.NewEdgeSet([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}})
	body := func(u, v graph.V, connected bool, hops []provenance.Hop) []byte {
		b, err := json.Marshal(explainBody{U: u, V: v, Connected: connected, Witness: hops})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if n, err := checkExplain(body(1, 3, true, []provenance.Hop{{U: 1, V: 2}, {U: 2, V: 3}}), edges); err != nil || n != 2 {
		t.Fatalf("genuine witness: hops %d, err %v", n, err)
	}
	if n, err := checkExplain(body(1, 3, false, nil), edges); err != nil || n != 0 {
		t.Fatalf("no witness: hops %d, err %v", n, err)
	}
	for name, forged := range map[string][]byte{
		"edge never submitted": body(1, 3, true, []provenance.Hop{{U: 1, V: 3}}),
		"path with a gap":      body(1, 3, true, []provenance.Hop{{U: 1, V: 2}, {U: 1, V: 3}}),
		"wrong endpoint":       body(1, 3, true, []provenance.Hop{{U: 1, V: 2}}),
		"not connected":        body(1, 3, false, []provenance.Hop{{U: 1, V: 2}, {U: 2, V: 3}}),
		"not JSON":             []byte("{"),
	} {
		if _, err := checkExplain(forged, edges); err == nil {
			t.Errorf("%s: forged witness accepted", name)
		}
	}
}

// encodeSchedule renders a schedule as bytes, one request per line.
func encodeSchedule(reqs []request) []byte {
	var b []byte
	for _, r := range reqs {
		b = fmt.Appendf(b, "%d %s %s %s\n", r.due.Nanoseconds(), kindNames[r.kind], r.target, r.body)
	}
	return b
}

// TestScheduleIsSeeded pins that the request schedule is a function of
// the seed alone.
func TestScheduleIsSeeded(t *testing.T) {
	const n = 1 << 12
	schedule := func(seed uint64) []byte {
		stream := flatten(streamBatches(seed, n, 500))
		return encodeSchedule(buildSchedule(seed, n, 0.5, queryMix, stream))
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}
