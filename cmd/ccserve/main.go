// Command ccserve hosts a graph as a live connectivity service: it
// loads or generates a graph, bootstraps component labels with a full
// Afforest run (or restores a persisted snapshot), and serves the
// internal/serve JSON endpoints. With -loadtest it instead acts as a
// load generator, hammering a server (in-process by default, or a
// remote -target) with a seeded mixed read/write workload and reporting
// sustained throughput.
//
// Examples:
//
//	ccserve -gen kron -scale 18 -addr :8080
//	ccserve -in graph.csr -save pi.snap
//	ccserve -restore pi.snap
//	ccserve -gen urand -n 100000 -loadtest -clients 16 -duration 10s
//	ccserve -loadtest -target http://localhost:8080 -read-frac 0.8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof and /debug/flight on this address (empty = disabled; keep it loopback-only)")
		flightSz = flag.Int("flight", 0, "flight-recorder ring capacity per worker (0 = default; recorder is always on when -debug-addr is set)")
		in       = flag.String("in", "", "input graph file (.csr binary or text edge list); mutually exclusive with -gen/-restore")
		genName  = flag.String("gen", "", "generate a graph: "+strings.Join(gen.Generators(), " | "))
		n        = flag.Int("n", 1<<16, "vertices for -gen (urand/road/twitter/web/regular)")
		scale    = flag.Int("scale", 16, "log2 vertices for -gen kron")
		deg      = flag.Int("deg", 16, "average degree / edge factor / attach count for -gen")
		seed     = flag.Uint64("seed", 42, "generator seed")
		restore  = flag.String("restore", "", "restore a label snapshot written by -save (restart without rebuild)")
		save     = flag.String("save", "", "persist a label snapshot to this path on shutdown")
		par      = flag.Int("p", 0, "parallelism (0 = GOMAXPROCS)")

		walDir      = flag.String("wal-dir", "", "write-ahead log directory: every acknowledged write batch is logged and fsynced before it is applied, and replayed on restart (empty = no durability)")
		walSegBytes = flag.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation threshold in bytes")
		walFsync    = flag.String("wal-fsync", "group", "WAL fsync policy: group (one fsync per coalesced batch, before the ack) | none (OS-paced; acked writes may be lost to a crash, watched by the wal_lag anomaly rule)")

		provenance = flag.Bool("provenance", false, "record the merge forest and serve GET /explain, /history, /debug/provenance (witness paths for every connectivity answer)")

		clusterAddrs = flag.String("cluster", "", "comma-separated ccshard addresses; serve as a sharded cluster router instead of single-node")

		loadtest = flag.Bool("loadtest", false, "run the load generator instead of serving")
		target   = flag.String("target", "", "loadtest target URL (empty = spin up an in-process server)")
		duration = flag.Duration("duration", 5*time.Second, "loadtest duration")
		clients  = flag.Int("clients", 8, "loadtest client goroutines")
		readFrac = flag.Float64("read-frac", 0.9, "loadtest fraction of read requests (0..1)")
		bulk     = flag.Int("bulk", 8, "loadtest edges per write request")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *clusterAddrs != "" {
		if err := clusterMain(*clusterAddrs, *addr, *debug, *in, *genName, *n, *scale, *deg, *seed, *par, set); err != nil {
			fmt.Fprintln(os.Stderr, "ccserve:", err)
			os.Exit(1)
		}
		return
	}

	cfg := serve.Config{Parallelism: *par, Provenance: *provenance}
	switch *walFsync {
	case "group":
	case "none":
		cfg.WALNoSync = true
	default:
		fmt.Fprintf(os.Stderr, "ccserve: -wal-fsync must be group or none, got %q\n", *walFsync)
		os.Exit(2)
	}
	cfg.WALDir = *walDir
	cfg.WALSegmentBytes = *walSegBytes
	// With a debug listener the flight recorder is always on: its
	// steady-state cost is per-chunk, not per-edge, and /debug/flight is
	// the first thing to pull when the service misbehaves. Anomaly
	// firings snapshot it automatically (serve wires AttachFlight).
	if *debug != "" {
		cfg.Flight = obs.NewFlightRecorder(concurrent.DefaultPool().Size(), *flightSz)
		http.Handle("/debug/flight", cfg.Flight.Handler())
	}

	if *loadtest {
		if err := loadtestMain(*target, *in, *genName, *restore, *n, *scale, *deg, *seed, cfg,
			loadConfig{Duration: *duration, Clients: *clients, ReadFrac: *readFrac, Bulk: *bulk, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "ccserve:", err)
			os.Exit(1)
		}
		return
	}

	srv, err := buildServer(*in, *genName, *restore, *n, *scale, *deg, *seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserve:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserve:", err)
		os.Exit(1)
	}
	fmt.Printf("serving %d vertices, %d edges, %d components on %s\n",
		srv.NumVertices(), srv.EdgesAccepted(), srv.NumComponents(), ln.Addr())
	if rep := srv.WALReplay(); rep != nil {
		fmt.Printf("wal %s: replayed %d records (%d edges) past watermark, skipped %d\n",
			*walDir, rep.Records, rep.Edges, rep.Skipped)
		if rep.Tail != "" {
			fmt.Printf("wal: recovered from torn tail: %s\n", rep.Tail)
		}
		if rep.Diverged {
			fmt.Fprintf(os.Stderr, "ccserve: WARNING: wal replay diverged: %s\n", rep.Divergence)
		}
	}
	serveDebug(*debug, fmt.Sprintf("pprof on http://%s/debug/pprof/, flight recorder on http://%s/debug/flight", *debug, *debug))

	err = serveUntilSignal(ln, srv, func(ctx context.Context, httpSrv *http.Server) error {
		return drainServer(ctx, httpSrv, srv)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccserve:", err)
		os.Exit(1)
	}
	if *save != "" {
		if err := srv.SaveSnapshot(*save); err != nil {
			fmt.Fprintln(os.Stderr, "ccserve: saving snapshot:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot saved to %s (%d edges)\n", *save, srv.EdgesAccepted())
	}
}

// serveDebug serves net/http/pprof, which registers on
// http.DefaultServeMux via its import side effect, and whatever else main
// mounted there, on a listener of its own that keeps them off the service
// address. An empty addr serves nothing.
func serveDebug(addr, banner string) {
	if addr == "" {
		return
	}
	go func() {
		fmt.Println(banner)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ccserve: debug listener:", err)
		}
	}()
}

// serveUntilSignal serves h on ln until SIGINT or SIGTERM, then runs drain
// with a 10-second deadline. A listener failure returns at once; a drain
// error is reported, not returned, so the caller's shutdown work (the
// -save snapshot) still runs.
func serveUntilSignal(ln net.Listener, h http.Handler, drain func(context.Context, *http.Server) error) error {
	httpSrv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drain(shutCtx, httpSrv); err != nil {
		fmt.Fprintln(os.Stderr, "ccserve: shutdown:", err)
	}
	return nil
}

// drainServer stops a ccserve service in an order that cannot strand
// accepted writes: the serve layer closes first — new submissions start
// seeing 503s, and Close returns only once the batcher has flushed every
// queued write and answered each write handler blocked on a reply — and
// only then does the HTTP listener drain its connections, which by that
// point carry only short-lived reads or already-answered writes. The
// reverse order (Shutdown first) would put the flush in flight under
// Shutdown's deadline: a write held up in its fsync past that deadline
// is still logged and applied by the Close that follows, but its
// handler is abandoned without a reply.
func drainServer(ctx context.Context, httpSrv *http.Server, srv *serve.Server) error {
	srv.Close()
	return httpSrv.Shutdown(ctx)
}

// buildServer resolves the graph source flags into a running server.
func buildServer(in, genName, restore string, n, scale, deg int, seed uint64, cfg serve.Config) (*serve.Server, error) {
	if restore != "" {
		if in != "" || genName != "" {
			return nil, errors.New("-in, -gen, and -restore are mutually exclusive")
		}
		return serve.Restore(restore, cfg)
	}
	g, err := loadGraph(in, genName, n, scale, deg, seed)
	if err != nil {
		return nil, err
	}
	return serve.Bootstrap(g, cfg)
}

// loadGraph is gen.LoadOrGenerate for either deployment. A single node
// also boots from -restore, so the missing-source error names it.
func loadGraph(in, genName string, n, scale, deg int, seed uint64) (*graph.CSR, error) {
	g, err := gen.LoadOrGenerate(in, genName, n, scale, deg, seed)
	if errors.Is(err, gen.ErrNoSource) {
		err = fmt.Errorf("%w; a single node also takes -restore SNAPSHOT", err)
	}
	return g, err
}

// startInProcess serves srv on a loopback listener and returns its base
// URL plus a stop function (used by -loadtest without -target).
func startInProcess(srv *serve.Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainServer(ctx, httpSrv, srv)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
