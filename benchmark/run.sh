#!/usr/bin/env bash
# Builds the benchmark runner from source inside the checkout (build cache and
# binary under .bench_build/, nothing outside the checkout is written) and runs
# it from the checkout root with the arguments given.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$build/rapid-benchmark" .)
exec "$build/rapid-benchmark" "$@"
