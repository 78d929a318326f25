#!/bin/sh
# Benchmark gate: writes the repository's three simulated artifacts from
# three jexp runs.
#
# BENCH_CELLS.json is the evaluation matrix over the full workload suite, one
# record per (workload, scheme, backend) cell: every scheme on the DBM with
# per-rule cost attribution, plus every rewrite-capable scheme under the
# static (AOT) and hybrid (AOT with DBM fail-over) backends. Each record
# carries cycles, instructions, cost centers, violations, exit status and
# the output's SHA-256; the file ends with one geomean-slowdown summary per
# (scheme, backend) column, its attributed overhead split into
# shadow-update/check/elided/dispatch/other fractions. jexp verifies the
# component sums exactly per profiled cell and checks every cell's exit
# status and output against the uninstrumented native run, so the sweep
# doubles as a parity gate.
#
# BENCH_STATIC.json is the static-vs-dynamic detection study: jlint's must
# and must+may alarm tiers against sanitized execution over the CWE-457 and
# CWE-122 suites and the planted fuzz bug classes (per-suite TP/FN/FP per
# tier plus analysis wall-time vs sanitized execution time).
#
# BENCH_OBS.json measures the observability stack's cost: six schemes over
# the full suite, each cell run plain and with tracing + structured
# diagnostics attached. The two runs must agree cycle-exactly (jexp obs
# hard-errors otherwise — the zero-cost-when-disabled gate); the artifact
# records each scheme's span/record counts and host wall overhead.
#
# Usage: scripts/bench.sh [cells.json] [static.json] [obs.json]
# BENCH_PARALLEL overrides the jexp worker count (default 8).
set -eu

cd "$(dirname "$0")/.."
cells_out="${1:-BENCH_CELLS.json}"
static_out="${2:-BENCH_STATIC.json}"
obs_out="${3:-BENCH_OBS.json}"

go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$cells_out" cells > /dev/null
echo "bench: wrote $cells_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$static_out" static > /dev/null
echo "bench: wrote $static_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" obs > "$obs_out"
echo "bench: wrote $obs_out"
