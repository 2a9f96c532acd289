#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload redis --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/modcache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
