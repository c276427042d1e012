#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload web-simt --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd benchmark && go build -o "$build/nulpa-benchmark" .)
exec "$build/nulpa-benchmark" "$@"
