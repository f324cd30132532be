package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestComparableSkipsOtherCPUModels: an entry measured on another CPU
// model is no baseline, an entry that records no model (every entry
// written before the field existed) still is, and an old entry reads
// and writes back without the new fields.
func TestComparableSkipsOtherCPUModels(t *testing.T) {
	run := &TrajectoryReport{Scale: 18, Seed: 42, Parallelism: 1, GoMaxProcs: 1, NProc: 2, CPUModel: "Intel(R) Xeon(R) Processor"}
	for _, tc := range []struct {
		model string
		want  bool
	}{{"Intel(R) Xeon(R) Processor", true}, {"", true}, {"AMD EPYC 7B13", false}} {
		b := *run
		b.CPUModel = tc.model
		if got := run.Comparable(&b); got != tc.want {
			t.Errorf("entry from %q: Comparable = %v, want %v", tc.model, got, tc.want)
		}
	}
	other := *run
	other.GoMaxProcs = 2
	if run.Comparable(&other) {
		t.Error("an entry at another GOMAXPROCS is comparable")
	}

	old := `{"date":"2026-08-08T05:15:39Z","scale":18,"runs":9,"seed":42,"parallelism":1,"gomaxprocs":1,"entries":[]}`
	var r TrajectoryReport
	if err := json.Unmarshal([]byte(old), &r); err != nil {
		t.Fatal(err)
	}
	if !run.Comparable(&r) {
		t.Error("an entry without a CPU model is not comparable")
	}
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(out); strings.Contains(s, "nproc") || strings.Contains(s, "cpu_model") {
		t.Errorf("old entry re-encodes with the new fields: %s", s)
	}
}

// TestGitCommitMarksDirtySource: a history entry names the bare hash
// on a clean tree or when only a data file changed, and "-dirty" when a
// Go file is edited or untracked.
func TestGitCommitMarksDirtySource(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("main.go", "package main\n")
	write("BENCH.json", "{}\n")
	git("init", "-q")
	git("add", "-A")
	git("commit", "-q", "-m", "init")
	head := git("rev-parse", "--short", "HEAD")

	for _, step := range []struct {
		name string
		edit func()
		want string
	}{
		{"clean tree", func() {}, head},
		{"edited .json", func() { write("BENCH.json", "{\"history\": []}\n") }, head},
		{"edited .go", func() { write("main.go", "package main\n\nfunc main() {}\n") }, head + "-dirty"},
		{"untracked .go", func() { git("checkout", "--", "main.go"); write("new.go", "package main\n") }, head + "-dirty"},
	} {
		step.edit()
		if got := gitCommit(dir); got != step.want {
			t.Errorf("%s: gitCommit = %q, want %q", step.name, got, step.want)
		}
	}
}
