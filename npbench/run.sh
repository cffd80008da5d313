#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash npbench/run.sh --workload campus-build --seed 7 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build and its Go cache
# stay inside .bench_build at the root, so nothing is written outside
# the checkout; the first build compiles the standard library and takes
# a minute or two.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/npbench" && go build -o "$out/npbench" .)
exec "$out/npbench" "$@"
