#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Everything it writes stays inside the checkout: the binary and the Go build
# cache go to .bench_build/, run records and traces to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/handsfree-bench" .
cd "$root"
exec "$build/handsfree-bench" "$@"
