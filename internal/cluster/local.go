package cluster

import (
	"fmt"
	"net"
	"sync"
)

// Local is an in-process cluster: real shards behind real loopback TCP
// listeners, driven by a real router — the full wire protocol without
// separate OS processes, so tests (and `go test -race`) can exercise
// the deployment path deterministically.
type Local struct {
	Router *Router
	Addrs  []string

	shards     []*Shard
	listeners  []net.Listener
	wg         sync.WaitGroup
	provenance bool
}

// StartLocal boots numShards in-process shards on loopback listeners
// and a router partitioned over n vertices. Close tears the whole
// topology down.
func StartLocal(n, numShards int, cfg Config) (*Local, error) {
	l := &Local{provenance: cfg.Provenance}
	for i := 0; i < numShards; i++ {
		addr, err := l.SpawnShard(cfg.Parallelism)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: local listener %d: %w", i, err)
		}
		l.Addrs = append(l.Addrs, addr)
	}
	r, err := NewRouter(l.Addrs, n, cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Router = r
	return l, nil
}

// SpawnShard starts one in-process shard on a loopback listener and
// returns its address. StartLocal boots the initial partition with it;
// called afterwards, it is the replacement member for a Join after a
// Leave.
func (l *Local) SpawnShard(parallelism int) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	sh := NewShard(parallelism)
	sh.SetProvenance(l.provenance)
	l.shards = append(l.shards, sh)
	l.listeners = append(l.listeners, ln)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		sh.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close shuts the router and every shard down and waits for the serve
// loops to exit.
func (l *Local) Close() {
	if l.Router != nil {
		l.Router.Close(true)
	}
	for _, ln := range l.listeners {
		ln.Close() // no-op for shards already shut down via opShutdown
	}
	l.wg.Wait()
}
