package main

import (
	"fmt"
	"runtime"
	"time"

	"afforest/internal/cluster"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// clusterShards is the loopback topology every load boots: three
// shards, so each exchange crosses shard boundaries in both directions.
const clusterShards = 3

// wireSpanCapacity holds one traced load's router-side spans plus the
// shard spans pulled after it.
const wireSpanCapacity = 1 << 14

// clusterSys is one booted loopback cluster.
type clusterSys struct {
	l    *cluster.Local
	wt   *obs.WireTrace // nil untraced
	boot time.Time      // approximate epoch of the router and shard tracers
}

func bootCluster(n, procs int, traced bool) (*clusterSys, error) {
	s := &clusterSys{boot: time.Now()}
	cfg := cluster.Config{Parallelism: procs}
	if traced {
		s.wt = obs.NewWireTrace(wireSpanCapacity)
		cfg.Trace = s.wt
	}
	l, err := cluster.StartLocal(n, clusterShards, cfg)
	if err != nil {
		return nil, err
	}
	s.l = l
	return s, nil
}

// runCluster streams urand at scale-2 into a fresh cluster again and
// again: all time goes to the router, the shard exchange and the wire
// codec. One op is one Router.LoadGraph.
func runCluster(cfg config, rec *recorder, b *box) (*phase, error) {
	ph := newPhase()
	scale := cfg.scale - 2
	traced := rec != nil
	base := heapMB()
	var buildS []float64
	type input struct {
		g   *graph.CSR
		sys *clusterSys
	}
	in, setupS, err := setupMedian(func() (input, error) {
		t := time.Now()
		g := gen.URandDegree(1<<scale, 16, cfg.seed)
		buildS = append(buildS, secs(time.Since(t)))
		sys, err := bootCluster(g.NumVertices(), cfg.procs, traced)
		return input{g, sys}, err
	}, func(in input) { in.sys.l.Close() })
	if err != nil {
		return nil, err
	}
	ph.e2e["setup_s"] = setupS
	ph.layer["graph.build_s"] = median(buildS)
	g, sys := in.g, in.sys
	edges := float64(g.NumEdges())
	want := oracle(g, nil)

	loadMS := make([][]float64, timedSets)
	var loadCPU, bootMS, rounds, messages, cut, bytes, exchange []float64
	rpcMS := map[string][]float64{}
	var workNS, rpcNS int64
	gc0 := gcPause()
	b.control()
	sets := newSetClock(cfg.seconds, b)
	for load := int64(0); ; load++ {
		if sys == nil {
			t := time.Now()
			if sys, err = bootCluster(g.NumVertices(), cfg.procs, traced); err != nil {
				return nil, err
			}
			bootMS = append(bootMS, ms(time.Since(t)))
		}
		q := sets.quarter()
		c0 := cpuNow()
		t0 := time.Now()
		err := sys.l.Router.LoadGraph(g)
		d := time.Since(t0)
		loadCPU = append(loadCPU, us(cpuNow()-c0))
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.fail(fmt.Errorf("cluster: load %d: %w", load, err))
		} else {
			loadMS[q] = append(loadMS[q], ms(d))
			st := sys.l.Router.Stats()
			rounds = append(rounds, float64(st.Rounds))
			messages = append(messages, float64(st.Messages))
			cut = append(cut, float64(st.CutEdges)/edges)
			bytes = append(bytes, float64(st.BytesSent+st.BytesRecv)/edges)
		}
		if traced {
			spans, err := pullWireSpans(sys)
			if err != nil {
				return nil, err
			}
			rec.addWireSpans(spans, sys.boot, load)
			sums := map[string]int64{}
			for _, s := range spans {
				switch {
				case s.Name == obs.WireExchange:
					exchange = append(exchange, float64(s.DurNS)/1e6)
				case s.Name == obs.WireWork:
					workNS += s.DurNS
				case !s.Remote && isLoadRPC(s.Name):
					sums[s.Name] += s.DurNS
					rpcNS += s.DurNS
				}
			}
			for _, op := range []string{obs.WireEdges, obs.WireOutbox, obs.WireIngest, obs.WireAbsorb} {
				rpcMS[op] = append(rpcMS[op], float64(sums[op])/1e6)
			}
		}
		sets.add(d)
		last := sets.done()
		if load == 0 || last {
			labels, err := sys.l.Router.GlobalLabels()
			if err != nil {
				return nil, fmt.Errorf("cluster: reading labels: %w", err)
			}
			ph.fail(checkLabels(fmt.Sprintf("cluster/load %d", load), labels, want))
		}
		if last {
			ph.layer["proc.gc_pause_ms"] = ms(gcPause() - gc0)
			ph.e2e["live_heap_mb"] = liveHeapMB() - base
			runtime.KeepAlive(g)
		}
		sys.l.Close()
		sys = nil
		sets.controls()
		if last {
			break
		}
	}
	if ph.failed == ph.attempted {
		return nil, fmt.Errorf("cluster: every load failed")
	}
	ph.setOps(loadMS, mean(loadCPU))
	l := ph.layer
	l["cluster.boot_ms"] = median(bootMS)
	l["cluster.rounds_per_load"] = median(rounds)
	l["cluster.messages_per_load"] = median(messages)
	l["cluster.cut_edge_frac"] = median(cut)
	l["cluster.wire_bytes_per_edge"] = median(bytes)
	if traced {
		l["cluster.exchange_ms_p50"] = median(exchange)
		for op, v := range rpcMS {
			l["cluster.rpc_"+op+"_ms"] = median(v)
		}
		l["cluster.shard_work_frac"] = ratio(float64(workNS), float64(rpcNS))
	}
	return ph, nil
}

// pullWireSpans moves the shards' server-side spans into the router's
// trace and drains it.
func pullWireSpans(s *clusterSys) ([]obs.WireSpan, error) {
	if _, err := s.l.Router.ClusterTimeline(); err != nil {
		return nil, fmt.Errorf("cluster: pulling shard spans: %w", err)
	}
	return s.wt.Drain(), nil
}

// isLoadRPC reports whether name is one of the four RPCs a load issues.
func isLoadRPC(name string) bool {
	switch name {
	case obs.WireEdges, obs.WireOutbox, obs.WireIngest, obs.WireAbsorb:
		return true
	}
	return false
}
