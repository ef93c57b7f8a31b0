#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (Go's build cache and temp files included, so nothing is
# written outside the checkout) and runs it from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/wbcast-benchmark" .
exec "$out/wbcast-benchmark" -dir "$out" "$@"
