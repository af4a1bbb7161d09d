#!/bin/sh
# Driver entry point (BENCHMARK.json "command"): builds the benchmark
# inside the checkout — Go build cache and temp files included, so
# nothing is written outside it — and runs it with the given flags.
# In a directory without the repository around it the build fails and
# the script exits non-zero without printing a result.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off
cd "$here"
go build -o "$build/bin/sjbenchmark" .
exec "$build/bin/sjbenchmark" "$@"
