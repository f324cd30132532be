package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"afforest/internal/cluster"
	"afforest/internal/obs"
)

// singleNodeFlags are the ccserve flags only a single node reads, each
// with what a cluster user does instead. Cluster mode refuses any of
// them set on the command line rather than dropping it: a router started
// with -wal-dir would acknowledge writes that no log holds.
var singleNodeFlags = []struct{ name, instead string }{
	{"restore", "cluster state is handed off via shard snapshots"},
	{"save", "cluster state is handed off via shard snapshots"},
	{"wal-dir", "the cluster router keeps no write-ahead log"},
	{"wal-fsync", "the cluster router keeps no write-ahead log"},
	{"wal-segment-bytes", "the cluster router keeps no write-ahead log"},
	{"provenance", "start each shard with ccshard -provenance instead"},
	{"flight", "each shard keeps its own flight recorder, served at /debug/cluster?view=flight&shard=N"},
	{"loadtest", "start the router, then load-test it with ccserve -loadtest -target http://ROUTER"},
}

// clusterMain runs ccserve as the router of a sharded cluster: it
// resolves the graph source, dials the ccshard processes, streams each
// its edge partition, reconciles labels across shards, and serves the
// router's HTTP surface on addr. set holds the flags given on the
// command line; any of singleNodeFlags among them is an error.
//
// Distributed tracing is always on in cluster mode: every request's
// shard RPCs carry the trace-context frame extension and the merged
// cluster timeline is served on /debug/cluster (the recorder is a
// bounded ring; the per-RPC cost is 13 header bytes and two span
// records). debugAddr, when non-empty, additionally serves
// net/http/pprof on a separate listener.
func clusterMain(shardList, addr, debugAddr, in, genName string, n, scale, deg int, seed uint64, par int, set map[string]bool) error {
	for _, f := range singleNodeFlags {
		if set[f.name] {
			return fmt.Errorf("-%s is a single-node flag, refused with -cluster: %s", f.name, f.instead)
		}
	}
	g, err := loadGraph(in, genName, n, scale, deg, seed)
	if err != nil {
		return err
	}

	addrs := strings.Split(shardList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	router, err := cluster.NewRouter(addrs, g.NumVertices(), cluster.Config{
		Parallelism: par,
		Trace:       obs.NewWireTrace(0),
	})
	if err != nil {
		return err
	}
	serveDebug(debugAddr, fmt.Sprintf("pprof on http://%s/debug/pprof/ (cluster timeline on the service address at /debug/cluster)", debugAddr))
	start := time.Now()
	if err := router.LoadGraph(g); err != nil {
		router.Close(false)
		return fmt.Errorf("loading graph into cluster: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		router.Close(false)
		return err
	}
	st := router.Stats()
	// The resolved address is printed (not the flag value) so scripts
	// using -addr 127.0.0.1:0 can discover the kernel-assigned port,
	// same contract as ccshard.
	fmt.Printf("cluster of %d shards loaded %d vertices in %v (%d exchange rounds, %d KiB on the wire); serving on %s\n",
		router.NumShards(), router.NumVertices(), time.Since(start).Round(time.Millisecond),
		st.Rounds, (st.BytesSent+st.BytesRecv)/1024, ln.Addr())

	// The router holds no write queue, so the listener drains first; then
	// tearing the router down shuts the shard processes down with it: a
	// ^C on the router is the whole-topology off switch.
	return serveUntilSignal(ln, router, func(ctx context.Context, httpSrv *http.Server) error {
		err := httpSrv.Shutdown(ctx)
		router.Close(true)
		return err
	})
}
