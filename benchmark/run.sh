#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root (Go build cache included, so
# nothing is written outside the checkout) and runs it from benchmark/.
# Every argument is passed through; see README.md for the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/ocularone-benchmark" .
exec "$build/ocularone-benchmark" "$@"
