#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run from
# the repository root:
#
#   bash perfbench/run.sh --workload points-hot --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, module cache, Go's own config and
# telemetry) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
