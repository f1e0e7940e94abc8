#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything the build writes — binary, Go build cache — stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
