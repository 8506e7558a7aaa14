#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload reduce-sim --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# temporary files, the binary) stays under .bench_build/ in the current
# directory, and module resolution never leaves the checkout: the benchmark
# module replaces spardl with the parent directory, so outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/gopath"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# The binary reports the commit it was built from; a checkout that is not
# a git repository reports "unknown".
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
