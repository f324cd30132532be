#!/usr/bin/env bash
# Builds ccperf from the source tree it sits in and runs one workload.
# Run from the repository root:
#
#   bash cmd/ccperf/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# WAL directories, span files) stays under .bench_build/ccperf in the
# current directory. Build output goes to stderr, so the last line of
# stdout is always the result JSON.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/ccperf"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$src" && go build -o "$out/ccperf" .) >&2
exec "$out/ccperf" -dir "$out" "$@"
