package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/obs"
)

// TestRunErrors: an unknown -algo and a -repeat below 1 are errors,
// not a census of no run.
func TestRunErrors(t *testing.T) {
	g := gen.URandDegree(100, 4, 1)
	// main's fail adds the one "afforest: " prefix.
	err := run(g, "nope", core.Options{}, 1, 5, false)
	if err == nil || !strings.HasPrefix(err.Error(), `unknown algorithm "nope" (have [`) {
		t.Fatalf("unknown algorithm: %v, want the roster's error unwrapped", err)
	}
	if err := run(g, "afforest", core.Options{}, 0, 5, false); err == nil {
		t.Fatal("-repeat 0 accepted")
	}
}

func TestWriteTraceModes(t *testing.T) {
	dir := t.TempDir()
	g := gen.URandDegree(300, 6, 1)
	for _, algo := range []string{"afforest", "afforest-noskip", "sv"} {
		path := filepath.Join(dir, algo+".tsv")
		if err := writeTrace(g, algo, 0, path); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		info, err := os.Stat(path)
		if err != nil || info.Size() == 0 {
			t.Fatalf("%s: trace file missing or empty", algo)
		}
	}
	if err := writeTrace(gen.URandDegree(100, 4, 1), "dobfs", 0, filepath.Join(dir, "x.tsv")); err == nil {
		t.Fatal("untraceable algorithm accepted")
	}
}

// TestWritePhaseTrace runs the -trace path end to end on a generated
// graph and checks the JSONL phase tree: exactly one root span, the
// expected leaf phases under it, and leaf durations summing to nearly
// all of the root's wall time (the acceptance criterion is 5% at real
// scale; small graphs get a looser floor since fixed per-phase costs
// loom larger).
func TestWritePhaseTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	if err := writePhaseTrace(gen.Kronecker(12, 8, gen.Graph500, 7), "afforest", core.Options{Seed: 7}, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.Span
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	var rootNS, leafNS int64
	roots := 0
	leaves := map[string]int{}
	parents := map[obs.SpanID]bool{}
	for _, s := range spans {
		parents[s.Parent] = true
	}
	for _, s := range spans {
		if s.Parent == -1 {
			roots++
			rootNS = s.DurNS
		} else if !parents[s.ID] {
			leaves[s.Name]++
			leafNS += s.DurNS
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
	for name, want := range map[string]int{
		"neighbor_round": 2, "compress": 2,
		"sample_frequent": 1, "final_skip_pass": 1, "final_compress": 1,
	} {
		if leaves[name] != want {
			t.Errorf("leaf %q appears %d times, want %d (leaves: %v)", name, leaves[name], want, leaves)
		}
	}
	if cover := float64(leafNS) / float64(rootNS); cover < 0.5 || cover > 1.0 {
		t.Errorf("leaf coverage = %.1f%% of root wall time, want within (50%%, 100%%]", cover*100)
	}

	if err := writePhaseTrace(gen.URandDegree(200, 4, 1), "sv", core.Options{Seed: 1}, filepath.Join(dir, "z.jsonl")); err == nil {
		t.Fatal("phase trace accepted an algorithm without phase hooks")
	}
}
