#!/bin/sh
# Benchmark gate: runs the Janitizer scheme sweep (jasan/jcfi/jmsan/jtsan
# hybrid and elision variants plus the comprehensive jasan+jmsan+jtsan+jcfi
# configuration)
# over the full workload suite through jexp, writing one deterministic
# per-scheme geomean-slowdown row each to BENCH_JANITIZER.json, then reruns
# the sweep with per-rule cost attribution to produce BENCH_PROFILE.json —
# each scheme's slowdown decomposed into shadow-update/check/elided/dispatch
# components whose sums are verified exact per (benchmark, scheme) cell.
#
# It then runs the three-way rewriting bake-off — every rewrite-capable
# scheme under the dynamic, static (AOT) and hybrid (AOT with DBM fail-over)
# backends — into BENCH_REWRITE.json, one geomean row per (scheme, backend)
# cell. Every cell cross-checks exit status and output bytes against the
# uninstrumented native run, so the sweep doubles as a parity gate.
#
# It then measures the serving trajectory: a 3-node janitizerd fleet plus a
# single-node baseline replayed with jload's traffic mixes, written to
# BENCH_SERVE.json (QPS, p50/p95/p99, cache tiers, per-shard balance, and
# the fleet-vs-single hot-mix speedup).
#
# It then runs the temporal-sanitizer figure — jtsan hybrid/elide/dyn vs
# the valgrind-temporal generation-tag memcheck model vs the comprehensive
# jasan+jmsan+jtsan+jcfi stack over all 28 workloads — into
# BENCH_JTSAN.txt. That artifact is the study's text, not JSON: the table,
# the geomeans and notes, then one `BENCH_JTSAN {json}` line per workload
# with per-cell weighted-cycle slowdowns, elided-check counts, and the
# gen-check/quarantine/elided telemetry cost centers.
#
# Finally it runs the static-vs-dynamic detection study — jlint's must and
# must+may alarm tiers against sanitized execution over the CWE-457 and
# CWE-122 suites and the planted fuzz bug classes — into BENCH_STATIC.json
# (per-suite TP/FN/FP per tier plus analysis wall-time vs sanitized
# execution time).
#
# It also measures the observability stack's cost into BENCH_OBS.json: six
# schemes over the full suite, each cell run plain and with tracing +
# structured diagnostics attached. The two runs must agree cycle-exactly
# (jexp obs hard-errors otherwise — the zero-cost-when-disabled gate); the
# artifact records each scheme's span/record counts and host wall overhead.
#
# Usage: scripts/bench.sh [output.json] [profile.json] [serve.json] [rewrite.json] [static.json] [jtsan.txt] [obs.json]
# BENCH_PARALLEL overrides the jexp worker count (default 8).
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_JANITIZER.json}"
profile_out="${2:-BENCH_PROFILE.json}"
serve_out="${3:-BENCH_SERVE.json}"
rewrite_out="${4:-BENCH_REWRITE.json}"
static_out="${5:-BENCH_STATIC.json}"
jtsan_out="${6:-BENCH_JTSAN.txt}"
obs_out="${7:-BENCH_OBS.json}"

go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" bench > "$out"
echo "bench: wrote $out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$profile_out" profile > /dev/null
echo "bench: wrote $profile_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" rewrite > "$rewrite_out"
echo "bench: wrote $rewrite_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" -o "$static_out" static > /dev/null
echo "bench: wrote $static_out"
go run ./cmd/jexp -parallel "${BENCH_PARALLEL:-8}" jtsan > "$jtsan_out"
echo "bench: wrote $jtsan_out"
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
