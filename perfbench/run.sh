#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload flat_suite --seed 0 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything the build and the runs write stays under .bench_build/ at the
# checkout root: the binary, the Go build cache and the per-run scratch
# directories.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
# Run as a child, not with exec: an exec'd process keeps this shell's
# waited-for children (the go build) in its RUSAGE_CHILDREN peak RSS.
"$out/perfbench" "$@"
