#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload dynamic --seed 1 --seconds 24 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
