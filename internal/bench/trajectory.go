package bench

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"afforest/internal/baselines"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/stats"
)

// TrajectoryEntry is one (algorithm, graph) cell of the perf
// trajectory: the median runtime normalized to nanoseconds per
// undirected edge, the unit Fig 6c reports and the one that stays
// comparable as scales change between PRs.
type TrajectoryEntry struct {
	Algorithm string  `json:"algorithm"`
	Graph     string  `json:"graph"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	MedianMS  float64 `json:"median_ms"`
	NSPerEdge float64 `json:"ns_per_edge"`
}

// TrajectoryReport is the machine-readable perf record emitted by
// `ccbench -exp bench` and committed as BENCH_afforest.json so that
// successive PRs accumulate a before/after history of the hot paths.
type TrajectoryReport struct {
	Date        string            `json:"date"`
	Commit      string            `json:"commit,omitempty"`     // short git hash, "" when not in a checkout
	GoVersion   string            `json:"go_version,omitempty"` // runtime.Version() of the measuring binary
	Scale       int               `json:"scale"`
	Runs        int               `json:"runs"`
	Seed        uint64            `json:"seed"`
	Parallelism int               `json:"parallelism"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	NProc       int               `json:"nproc,omitempty"`     // runtime.NumCPU() of the measuring box
	CPUModel    string            `json:"cpu_model,omitempty"` // "" when the platform does not name it
	Entries     []TrajectoryEntry `json:"entries"`
}

// newReport returns an empty report stamped with the configuration and
// the box it is measured on.
func newReport(cfg Config) *TrajectoryReport {
	return &TrajectoryReport{
		Date:        time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		Commit:      gitCommit(""),
		GoVersion:   runtime.Version(),
		Scale:       cfg.Scale,
		Runs:        cfg.Runs,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    cpuModel(),
	}
}

// trajectoryRoster is the fixed (algorithm, graph) grid of the
// trajectory: the paper's contribution plus the two baselines most
// sensitive to link-phase throughput, on the two synthetic topologies
// that bracket degree skew (urand: uniform; kron: power law).
func trajectoryRoster() ([]baselines.Entry, []string) {
	return algorithms("afforest", "sv", "lp"), []string{"urand", "kron"}
}

// Trajectory measures the trajectory grid and returns the report.
func Trajectory(cfg Config) *TrajectoryReport {
	cfg = cfg.withDefaults()
	rep := newReport(cfg)
	algos, graphs := trajectoryRoster()
	for _, name := range graphs {
		sg, err := gen.ByName(name)
		if err != nil {
			panic(err) // roster names are compile-time constants
		}
		g := sg.Build(cfg.Scale, cfg.Seed)
		for _, alg := range algos {
			var labels []graph.V
			tm := stats.MeasureFunc(cfg.Runs, func() {
				labels = alg.Run(g, core.Options{Parallelism: cfg.Parallelism})
			})
			checkLabeling(cfg, g, alg.Name+"/"+name, labels)
			edges := g.NumEdges()
			rep.Entries = append(rep.Entries, TrajectoryEntry{
				Algorithm: alg.Name,
				Graph:     name,
				Vertices:  g.NumVertices(),
				Edges:     edges,
				MedianMS:  tm.Median.Seconds() * 1000,
				NSPerEdge: float64(tm.Median.Nanoseconds()) / float64(edges),
			})
		}
	}
	return rep
}

// gitCommit returns the short hash of HEAD in the checkout at dir (""
// means the working directory), suffixed "-dirty" when a Go source file
// or go.mod differs from HEAD or is untracked. Only code counts, so
// appending to BENCH_afforest.json leaves the next entry clean (":/"
// anchors each pattern at the top of the work tree). Best-effort on
// purpose: outside a checkout or without git it returns "", because a
// perf record must never fail for want of git.
func gitCommit(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	hash, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return ""
	}
	if status, err := git("status", "--porcelain", "--", ":/*.go", ":/go.mod"); err == nil && status != "" {
		hash += "-dirty"
	}
	return hash
}

// cpuModel returns the CPU model the kernel reports (Linux's first
// "model name" line in /proc/cpuinfo), or "" where there is none.
// Best-effort like gitCommit.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Table renders the report for terminal output alongside the JSON.
func (r *TrajectoryReport) Table() *stats.Table {
	t := stats.NewTable("Bench trajectory: ns/edge, median", "algorithm", "graph", "edges", "median_ms", "ns_per_edge")
	for _, e := range r.Entries {
		t.AddRow(e.Algorithm, e.Graph, e.Edges, fmt.Sprintf("%.2f", e.MedianMS), fmt.Sprintf("%.3f", e.NSPerEdge))
	}
	return t
}
