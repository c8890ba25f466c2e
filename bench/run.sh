#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash bench/run.sh --workload ask_small --seed 42 --seconds 10 --trace 0
# Everything the build writes — Go's build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/cqads-bench" .
exec "$build/cqads-bench" "$@"
