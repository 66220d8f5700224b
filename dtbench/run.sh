#!/usr/bin/env bash
# Builds the dtbench harness from the source tree it sits in and runs it.
#
#   bash dtbench/run.sh --workload batch-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output (Go build cache, the
# binary, span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$root/dtbench" && go build -o "$out/dtbench" .)
exec "$out/dtbench" "$@"
