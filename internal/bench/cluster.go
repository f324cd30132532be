package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"afforest/internal/cluster"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

// clusterShards is the fixed topology of the cluster trajectory cells:
// the smallest width where every exchange crosses real shard
// boundaries in both directions (two shards would hide asymmetric
// routing bugs and three matches the documented walkthrough).
const clusterShards = 3

// clusterRunsCap bounds timed repetitions for the cluster cells. Each
// repetition boots a fresh 3-shard topology and streams the whole graph
// over loopback TCP, so the per-run cost is orders of magnitude above
// an in-process link pass; three medianed runs keep `-gate` wall time
// sane while still rejecting one-off scheduler hiccups.
const clusterRunsCap = 3

// ClusterTrajectory measures the sharded deployment on the trajectory
// graphs and returns cells for the same history/gate machinery as
// Trajectory:
//
//   - "cluster"/<graph>: ns per undirected edge to stream and
//     reconcile the full graph into a fresh 3-shard local cluster
//     (real wire protocol on loopback), median of the timed runs.
//   - "cluster-bytes"/<graph>: wire bytes per undirected edge for that
//     load — the exchange-volume cell. It rides in the NSPerEdge field
//     so the gate's median/MAD tolerance guards communication-volume
//     regressions exactly like time regressions; MedianMS is left 0 to
//     mark the unit difference.
func ClusterTrajectory(cfg Config) *TrajectoryReport {
	cfg = cfg.withDefaults()
	if cfg.Runs > clusterRunsCap {
		cfg.Runs = clusterRunsCap
	}
	rep := &TrajectoryReport{
		Date:        time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		Scale:       cfg.Scale,
		Runs:        cfg.Runs,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, name := range []string{"urand", "kron"} {
		sg, err := gen.ByName(name)
		if err != nil {
			panic(err) // grid names are compile-time constants
		}
		g := sg.Build(cfg.Scale, cfg.Seed)
		edges := g.NumEdges()
		durations := make([]time.Duration, 0, cfg.Runs)
		var wireBytes int64
		for run := 0; run < cfg.Runs; run++ {
			d, st := loadCluster(cfg, g, "cluster/"+name, clusterShards, run == 0)
			durations = append(durations, d)
			if run == 0 {
				wireBytes = st.BytesSent + st.BytesRecv
			}
		}
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		median := durations[len(durations)/2]
		rep.Entries = append(rep.Entries,
			TrajectoryEntry{
				Algorithm: "cluster",
				Graph:     name,
				Vertices:  g.NumVertices(),
				Edges:     edges,
				MedianMS:  median.Seconds() * 1000,
				NSPerEdge: float64(median.Nanoseconds()) / float64(edges),
			},
			TrajectoryEntry{
				Algorithm: "cluster-bytes",
				Graph:     name,
				Vertices:  g.NumVertices(),
				Edges:     edges,
				NSPerEdge: float64(wireBytes) / float64(edges),
			},
		)
	}
	return rep
}

// loadCluster boots a fresh loopback cluster of the given width, streams
// g into it, and returns the load's wall time and the router's wire
// tallies for it. With check set (and cfg.Validate on) the assembled
// global labeling must pass the oracle check; the tallies are taken
// before that read so they cover the load alone.
func loadCluster(cfg Config, g *graph.CSR, algName string, shards int, check bool) (time.Duration, cluster.RouterStats) {
	l, err := cluster.StartLocal(g.NumVertices(), shards, cluster.Config{Parallelism: cfg.Parallelism})
	if err != nil {
		panic(fmt.Sprintf("bench: cluster boot failed: %v", err))
	}
	defer l.Close()
	start := time.Now()
	if err := l.Router.LoadGraph(g); err != nil {
		panic(fmt.Sprintf("bench: cluster load failed: %v", err))
	}
	elapsed := time.Since(start)
	st := l.Router.Stats()
	if check && cfg.Validate {
		labels, err := l.Router.GlobalLabels()
		if err != nil {
			panic(fmt.Sprintf("bench: cluster labels: %v", err))
		}
		checkLabeling(cfg, g, algName, labels)
	}
	return elapsed, st
}
