GO ?= go

# Default target: the full verification gate.
all: check

build:
	$(GO) build ./...

# cmd/ccperf is its own module, so the root `go vet ./...` never
# reaches it.
vet:
	$(GO) vet ./...
	cd cmd/ccperf && $(GO) vet ./...

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# check is the correctness gate: formatting and static checks, the full
# test suite, the benchmark's own tests, the race matrix over the
# schedule-sensitive packages, a smoke run of every fuzz target, the
# multi-process cluster smoke, and a run-vs-self pass of the perf gate.
# This is what CI should run.
check: fmt vet build plainloop test ccperf-test race-matrix fuzz-smoke wal-smoke cluster-smoke provenance-smoke perfgate-smoke

# plainloop checks the generated code of Run's nil-Observer path. Fig 5
# is one generic driver, run[T], and every LinkStats counter statement
# lives in internal/core/instrument.go, so no instruction in the
# closures of the uncounted instantiation (run[go.shape.[0]struct {}])
# may come from that file. The counted closures must hold some, or the
# check has lost sight of the code it guards.
plainloop:
	@$(GO) build -gcflags=-S ./internal/core 2>&1 >/dev/null | awk ' \
		/^[^ \t]/ { mode = ""; \
			if ($$0 ~ /^afforest\/internal\/core\.run\[go\.shape\.\[0\]struct \{\}\]\..* STEXT /) { mode = "uncounted"; closures++ } \
			else if ($$0 ~ /^afforest\/internal\/core\.run\[go\.shape\.\[1\]struct \{\}\]\..* STEXT /) mode = "counted"; \
			next } \
		mode != "" && /\/internal\/core\/instrument\.go:/ { hits[mode]++ } \
		END { printf "plainloop: %d uncounted closures; instructions from instrument.go: uncounted %d, counted %d\n", \
				closures, hits["uncounted"], hits["counted"]; \
			if (closures == 0 || hits["uncounted"] > 0 || hits["counted"] == 0) { print "plainloop: FAIL"; exit 1 } }'

# cmd/ccperf is its own Go module (it replaces afforest with ../..), so
# the root `go test ./...` never reaches its tests: workload smokes,
# label/witness corruption checks, and the BENCHMARK.json metric lists.
ccperf-test:
	cd cmd/ccperf && $(GO) test ./...

# The race detector only sees interleavings that happen, so the
# schedule-sensitive packages run under three thread budgets: 1 (pure
# cooperative, catches logic that only works when preempted), 2 (the
# smallest truly parallel schedule), and 8 (contention). The differential
# matrix inside internal/testkit additionally permutes chunk dispatch
# with seeded schedules, so each pass explores distinct interleavings.
# internal/obs is in the matrix because its sinks take Emit from the
# serve batcher goroutine and a bootstrap run at once. internal/graph and
# internal/gen are in it because graph.Build's output rests on workers
# writing disjoint ranges of shared arrays with plain stores.
race-matrix:
	@for p in 1 2 8; do \
		echo "== race matrix: GOMAXPROCS=$$p =="; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 \
			./internal/concurrent ./internal/core ./internal/serve ./internal/testkit \
			./internal/cluster ./internal/wal ./internal/provenance ./internal/obs \
			./internal/graph ./internal/gen \
			|| exit 1; \
	done

# 10-second smoke of each native fuzz target: the parsers for the
# external input formats (text edge list, binary CSR, MatrixMarket),
# the HTTP surface behind both deployments (a single node and a
# loopback cluster router), the POST /edges body scanner against the
# encoding/json decoder it replaced, the cluster wire-frame decoder,
# the shard's request dispatcher, the WAL record decoder, and the
# provenance forest against a reference model. CI keeps corpora warm;
# real exploration is `go test -fuzz=<target> -fuzztime=10m <pkg>`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadMatrixMarket -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzServeHandlers -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzEdgesBody -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzRouterHandlers -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzShardHandle -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzForest -fuzztime=10s ./internal/provenance

# wal-smoke is the crash-recovery e2e: a durable ccserve under a
# concurrent write workload, the WAL directory copied mid-append as a
# crash image (torn tail included), and a fresh server booted from the
# image alone — every pre-image acknowledged edge must be reflected and
# the recovered labeling must match a serial oracle over the replayed
# records.
wal-smoke:
	$(GO) test -run='^TestWALSmoke$$' -count=1 -v ./cmd/ccserve

# cluster-smoke spins up the real sharded deployment — three ccshard
# processes plus a ccserve -cluster router on loopback — loads a kron-16
# graph, checks the census against the single-node answer, scrapes
# /metrics for live wire counters, and drills a shard leave/join with
# snapshot handoff.
cluster-smoke:
	$(GO) test -run='^TestClusterSmoke$$' -count=1 -v ./cmd/ccserve

# provenance-smoke is the witness-path e2e: a durable provenance-enabled
# ccserve under concurrent writers, every live /explain answer verified
# as a genuine path of acknowledged edges, then a restart purely from
# the WAL after which the canonical forest dump and every explanation
# must come back byte-identical.
provenance-smoke:
	$(GO) test -run='^TestProvenanceSmoke$$' -count=1 -v ./cmd/ccserve

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# perfgate measures the trajectory grid under the committed history's
# configurations — a GOMAXPROCS={1,8} matrix at scale 18, seed 42 — and
# fails on any cell regressing beyond the noise tolerance. Baseline
# entries for both matrix cells live in BENCH_afforest.json (history
# entries only gate against same-GOMAXPROCS runs). Exercise the failure
# path with:
#   go run ./cmd/ccbench -gate -scale 18 -runs 9 -p 1 -inject-slowdown afforest/kron=2
perfgate:
	@for p in 1 8; do \
		echo "== perfgate: GOMAXPROCS=$$p =="; \
		GOMAXPROCS=$$p $(GO) run ./cmd/ccbench -gate -scale 18 -runs 9 -seed 42 -p $$p \
			|| exit 1; \
	done

# NPROC is this machine's CPU count.
NPROC := $(shell nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)

# perfgate-smoke is the short-mode gate check inside `make check`: a
# fresh small-scale measurement appended to a throwaway history must
# pass a gate run against itself (run-vs-self) at GOMAXPROCS 1 and at
# NPROC (one cell when they are equal). It proves the gate machinery
# runs end to end, measurement, history and verdict, at both settings.
# A GOMAXPROCS above the CPU count would measure oversubscription, not
# this machine; the race matrix still covers 8. Scale-14 cells run in
# well under a millisecond, so back-to-back noise on a shared VM
# routinely exceeds the production 35% tolerance, and the smoke widens
# it to 75%. At that width it does not reliably catch a real slowdown:
# an injected 2x afforest/kron passed it in 6 of 20 drills. Detecting
# regressions is ROADMAP item 2's job, not this smoke's.
perfgate-smoke:
	@for p in $$(printf '%s\n' 1 $(NPROC) | sort -nu); do \
		echo "== perfgate-smoke: GOMAXPROCS=$$p =="; \
		tmp=$$(mktemp) && rm -f $$tmp && \
		GOMAXPROCS=$$p $(GO) run ./cmd/ccbench -exp bench -benchout $$tmp -scale 14 -runs 3 -p $$p >/dev/null && \
		GOMAXPROCS=$$p $(GO) run ./cmd/ccbench -gate -baseline $$tmp -scale 14 -runs 3 -p $$p -tolerance 0.75 && \
		rm -f $$tmp || exit 1; \
	done

.PHONY: all build vet fmt plainloop test ccperf-test check race-matrix fuzz-smoke wal-smoke cluster-smoke provenance-smoke bench perfgate perfgate-smoke
