#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps everything the Go toolchain
# writes (build cache, temp files) inside the checkout, then hands over to
# the harness, which builds the shipped binaries itself.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
