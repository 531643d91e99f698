#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it, from
# the root of a checkout. Everything the build writes — Go's build cache, its
# temporary files, the binary — stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
