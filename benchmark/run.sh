#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build and the run write (Go caches, the binary, the replicas'
# WAL directories) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/seemore-benchmark" .
cd "$root"
exec "$build/seemore-benchmark" -data-dir "$build/data" "$@"
