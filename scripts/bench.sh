#!/bin/sh
# Benchmark gate: writes the repository's simulated and serving artifacts
# from three jexp runs and one fleet replay.
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
# BENCH_SERVE.json is the serving trajectory: a 3-node janitizerd fleet plus
# a single-node baseline replayed with jload's traffic mixes (QPS,
# p50/p95/p99, cache tiers, per-shard balance, and the fleet-vs-single
# hot-mix speedup).
#
# Usage: scripts/bench.sh [cells.json] [static.json] [obs.json] [serve.json]
# BENCH_PARALLEL overrides the jexp worker count (default 8).
set -eu

cd "$(dirname "$0")/.."
cells_out="${1:-BENCH_CELLS.json}"
static_out="${2:-BENCH_STATIC.json}"
obs_out="${3:-BENCH_OBS.json}"
serve_out="${4:-BENCH_SERVE.json}"

go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$cells_out" cells > /dev/null
echo "bench: wrote $cells_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$static_out" static > /dev/null
echo "bench: wrote $static_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" obs > "$obs_out"
echo "bench: wrote $obs_out"

# Serve trajectory. The whole fleet is colocated on this host, where
# wall-clock CPU cannot tell one node from three; -service-time is the one
# explicit modeling knob that makes the comparison meaningful: every node
# (baseline included) pays the same fixed per-request service latency under
# its admission slot, so each node's capacity is its in-flight window over
# that latency — per-process, exactly as a real machine's capacity is
# per-machine. jload holds offered concurrency constant per node; QPS at
# equal latency then measures horizontal capacity.
go build -o /tmp/janitizerd-bench ./cmd/janitizerd
go build -o /tmp/jload-bench ./cmd/jload
SERVE_DIR=$(mktemp -d)
SERVE_PEERS="127.0.0.1:7761,127.0.0.1:7762,127.0.0.1:7763"
/tmp/janitizerd-bench -quiet -addr 127.0.0.1:7760 -cachedir "$SERVE_DIR/single" -service-time 4ms &
S_PID=$!
/tmp/janitizerd-bench -quiet -addr 127.0.0.1:7761 -cachedir "$SERVE_DIR/n1" -peers "$SERVE_PEERS" -service-time 4ms &
P1_PID=$!
/tmp/janitizerd-bench -quiet -addr 127.0.0.1:7762 -cachedir "$SERVE_DIR/n2" -peers "$SERVE_PEERS" -service-time 4ms &
P2_PID=$!
/tmp/janitizerd-bench -quiet -addr 127.0.0.1:7763 -cachedir "$SERVE_DIR/n3" -peers "$SERVE_PEERS" -service-time 4ms &
P3_PID=$!
trap 'kill "$S_PID" "$P1_PID" "$P2_PID" "$P3_PID" 2>/dev/null || true' EXIT
sleep 1
/tmp/jload-bench -addrs "$SERVE_PEERS" -single 127.0.0.1:7760 \
	-n 2000 -c 8 -modules 24 -require-peer-fill -o "$serve_out"
kill "$S_PID" "$P1_PID" "$P2_PID" "$P3_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$SERVE_DIR"
echo "bench: wrote $serve_out"
