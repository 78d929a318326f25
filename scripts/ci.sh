#!/bin/sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== examples =="
# Run every example to completion: examples/customtool is the documented
# template for core.Tool, so an interface change that breaks it, or any
# example exiting non-zero, fails here rather than only failing to build.
for ex in examples/*/; do
	if ! go run "./$ex" > /dev/null; then
		echo "example $ex failed" >&2
		exit 1
	fi
done

echo "== jcc -S | jas == jcc =="
# The compile golden checks through the API that assembling jcc's -S text
# reproduces the module jcc compiles; this checks the same through the jcc
# and jas command lines, for an executable and a shared object.
JCC_DIR=$(mktemp -d)
go build -o "$JCC_DIR/jcc" ./cmd/jcc
go build -o "$JCC_DIR/jas" ./cmd/jas
cat > "$JCC_DIR/prog.c" <<'EOF'
char greeting[16] = "streamed";
int table[4] = {1, 2, 3, 4};
int twice(int x) { return x * 2; }
int main() {
    char *p = malloc(32);
    strcpy(p, greeting);
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = s + table[i] + twice(i);
    }
    puts(p, strlen(p));
    free(p);
    return s & 63;
}
EOF
for flags in "" "-shared"; do
	"$JCC_DIR/jcc" -O2 $flags -o "$JCC_DIR/direct.jef" "$JCC_DIR/prog.c" > /dev/null
	"$JCC_DIR/jcc" -O2 $flags -S -o "$JCC_DIR/prog.s" "$JCC_DIR/prog.c" > /dev/null
	"$JCC_DIR/jas" -o "$JCC_DIR/viatext.jef" "$JCC_DIR/prog.s" > /dev/null
	if ! cmp "$JCC_DIR/direct.jef" "$JCC_DIR/viatext.jef"; then
		echo "jcc -O2 $flags: jcc -S | jas differs from jcc" >&2
		exit 1
	fi
done
rm -rf "$JCC_DIR"

echo "== offline CLI path: janitizer -> jrun =="
# The analyze-then-run CLIs name tools through internal/registry. The
# comprehensive composition must analyze and run a heap overflow and report
# it; a tool analyzed under an alias must find its .jrw files when run
# under the canonical name (fallback=0: no block ran without rules); a
# baseline must report structured records; and an unknown name must fail.
CLI_DIR=$(mktemp -d)
go build -o "$CLI_DIR/" ./cmd/jcc ./cmd/janitizer ./cmd/jrun ./cmd/jrw
cat > "$CLI_DIR/overflow.c" <<'EOF'
int main() {
    char *buf = malloc(16);
    buf[18] = 7;
    free(buf);
    return 0;
}
EOF
"$CLI_DIR/jcc" -O2 -o "$CLI_DIR/overflow.jef" "$CLI_DIR/overflow.c" > /dev/null
for pair in "comprehensive comprehensive" "jasan jasan-hybrid"; do
	set -- $pair
	rm -rf "$CLI_DIR/rules" && mkdir "$CLI_DIR/rules"
	"$CLI_DIR/janitizer" -tool "$1" -outdir "$CLI_DIR/rules" "$CLI_DIR/overflow.jef" > /dev/null
	"$CLI_DIR/jrun" -tool "$2" -rules "$CLI_DIR/rules" -stats "$CLI_DIR/overflow.jef" 2> "$CLI_DIR/stderr"
	if ! grep -q '^jasan: heap-buffer-overflow' "$CLI_DIR/stderr" ||
		! grep -q ' fallback=0 ' "$CLI_DIR/stderr"; then
		echo "janitizer -tool $1 | jrun -tool $2: want a violation and no fallback block:" >&2
		cat "$CLI_DIR/stderr" >&2
		exit 1
	fi
done
# A baseline's findings are structured records too: the Valgrind model's
# -report output carries an ASan-style error block for the overflow.
"$CLI_DIR/jrun" -tool valgrind -report "$CLI_DIR/overflow.jef" 2> "$CLI_DIR/stderr"
if ! grep -q '^==janitizer== ERROR: ' "$CLI_DIR/stderr"; then
	echo "jrun -tool valgrind -report: want an ERROR block:" >&2
	cat "$CLI_DIR/stderr" >&2
	exit 1
fi
if "$CLI_DIR/jrun" -tool nosuch "$CLI_DIR/overflow.jef" 2> /dev/null ||
	"$CLI_DIR/jrw" -scheme nosuch 2> /dev/null; then
	echo "an unknown tool name was accepted" >&2
	exit 1
fi
rm -rf "$CLI_DIR"

echo "== go vet: benchmark module =="
# benchmark/ is its own module (replace repro => ../), so the vet and build
# above skip it; vetting it catches a change to any internal API it builds
# on. It needs nothing beyond this repository, so it runs offline.
(cd benchmark && go vet ./...)

echo "== benchmark module tests =="
# Every workload at tiny size with its output checks, including the
# analyze workload's byte-identity check on repeated programs.
(cd benchmark && go test -count=1 .)

echo "== go test -race =="
go test -race ./...

echo "== decoder fuzzing (JEF, .jrw, JPL1) =="
# The three formats that cross process and node boundaries share one codec
# (internal/wire). Fuzz each decoder briefly from its seed corpus: any
# input must give the format's typed error or a value that survives
# Validate (JEF, JPL1) or re-marshals to the input (.jrw). Skipped in short
# mode; the seed corpora still run as ordinary tests above.
if [ "${CI_SHORT:-0}" = "1" ]; then
	echo "decoder fuzzing: skipped (CI_SHORT=1)"
else
	go test -run '^$' -fuzz '^FuzzReadModule$' -fuzztime 5s -parallel 2 ./internal/fuzz
	go test -run '^$' -fuzz '^FuzzReadRules$' -fuzztime 5s -parallel 2 ./internal/rules
	go test -run '^$' -fuzz '^FuzzReadPlan$' -fuzztime 5s -parallel 2 ./internal/rewrite
fi

echo "== executor and per-layer benchmarks (one iteration) =="
# Per-layer host benchmarks: the executor running a spec program natively,
# under the DBM (null client, jasan-hybrid, comprehensive) and through the
# hybrid rewriting backend, reporting ns/instr and allocs/op; the per-run
# fixed cost of a short comprehensive session (B/op); the static layers
# over one spec program: cc.Compile, cfg.Build, liveness, the VSA fixpoint
# and rewrite.Apply; and spec.Build over every spec program, the stage the
# benchmark's analyze workload times as cc.build. One iteration only
# proves they still run; measure with a larger -benchtime.
go test -run '^$' -bench . -benchtime=1x ./internal/vm ./internal/dbm ./internal/rewrite \
	./internal/core ./internal/cc ./internal/cfg ./internal/analysis ./internal/vsa ./internal/spec

echo "== study golden at 1 and 4 CPUs =="
# Every study's rendered output must be byte-identical at any parallelism:
# the grid runs GOMAXPROCS cells at once, so -cpu 1,4 runs the study golden
# serially and with four workers against the same checked-in file.
go test -count=1 -cpu 1,4 -run TestStudyGolden ./internal/experiments

echo "== janalyze determinism lint =="
# Repository-wide map-iteration lint: any `range` over a map feeding an
# emission or serialisation path is a nondeterministic-output bug (Go map
# order is random); the accepted idiom is collect-then-sort. janalyze exits
# nonzero on any finding.
go run ./cmd/janalyze ./...

echo "== focused vet + race: anserve, cluster, fuzz, jasan, jmsan, jtsan, rewrite, shadow, telemetry =="
# The analysis service, the sharded fleet, and the fuzzing campaigns are the
# heaviest concurrent subsystems; the telemetry layer is scraped concurrently
# by daemon handlers, and the rewrite backends share plan caches across
# worker goroutines. The sanitizers' run-time state must stay strictly
# per-machine: jtsan's quarantine/generation runtime (its parallel test
# runs detection on concurrent machines), and the bitmap, trap families and
# violation logs of internal/shadow that jasan, jmsan and jtsan all install.
# Vet and race-check them explicitly (count=1 defeats the test cache so the
# race detector actually re-executes them).
go vet ./internal/anserve ./internal/cluster ./internal/fuzz \
	./internal/jasan ./internal/jmsan ./internal/jtsan ./internal/rewrite \
	./internal/shadow ./internal/telemetry
go test -race -count=1 ./internal/anserve ./internal/cluster ./internal/fuzz \
	./internal/jasan ./internal/jmsan ./internal/jtsan ./internal/rewrite \
	./internal/shadow ./internal/telemetry

echo "== jfuzz smoke =="
# Deterministic fuzz smoke: fixed seed, both domains, fails the build on any
# oracle violation, crash or missed planted bug.
go run ./cmd/jfuzz -seed 1 -n 200 -workers 4 -o /tmp/jfuzz-ci.json

echo "== jvet proof replay =="
# Independent replay of every VSA elision/narrowing proof over the checked-in
# example modules and all 28 workload closures — including every no-escape
# claim backing a jtsan-elide'd generation check — plus the structural
# verifier over every statically rewritten module; exits nonzero on any
# claim that cannot be re-proven or any rewrite that breaks a structural
# guarantee.
go run ./cmd/jvet

echo "== juliet temporal suites (CWE-416/415) =="
# Temporal-safety acceptance gate: the 24-case use-after-free and 24-case
# double-free suites must show 0 false negatives and 0 false positives
# under jtsan, and an identical confusion matrix under jtsan-elide (the
# non-short elide reruns). count=1 defeats the cache so the gate re-runs.
go test -count=1 -run 'CWE416|CWE415|Suite416|Suite415' ./internal/juliet

echo "== jlint must-tier silence =="
# Static bug detection over every module in all 28 safe workload closures:
# the must-alarm tier is a zero-false-positive contract, so any must-alarm
# on the suite is either a genuine bug in a workload or a soundness
# regression in the analyzer — both fail CI (-fail-on-must exits 1).
go run ./cmd/jlint -parallel 4 -fail-on-must -o /tmp/jlint-ci.json

echo "== rewrite bake-off smoke =="
# Statically rewrite a workload subset and gate three properties: the
# structural verifier passes over every rewritten module (-verify), all
# three backends — dynamic DBM, static AOT, hybrid fail-over — report
# identical sanitizer verdicts, exit status and output bytes (-parity), and
# the rewritten cells run at all. jrw exits nonzero on any violation.
go run ./cmd/jrw -bench mcf,lbm,hmmer,omnetpp -verify -parity

echo "== janitizerd observability smoke =="
# Boot the daemon on an ephemeral port and check its observability surface:
# GET /metrics serves Prometheus text including the janitizer_build_info
# deploy-identity gauge, GET /violations serves the (empty) structured
# violation log, and GET /trace serves the span export. Requires curl;
# skipped where unavailable.
if command -v curl >/dev/null 2>&1; then
	go build -o /tmp/janitizerd-ci ./cmd/janitizerd
	/tmp/janitizerd-ci -addr 127.0.0.1:7749 -quiet &
	JD_PID=$!
	trap 'kill "$JD_PID" 2>/dev/null || true' EXIT
	ok=0
	for _ in 1 2 3 4 5 6 7 8 9 10; do
		if curl -sf http://127.0.0.1:7749/metrics | grep -q '^janitizer_analyze_submitted_total'; then
			ok=1
			break
		fi
		sleep 0.3
	done
	if [ "$ok" = "1" ]; then
		if ! curl -sf http://127.0.0.1:7749/metrics | grep -q '^janitizer_build_info{'; then
			echo "janitizerd: /metrics lacks janitizer_build_info" >&2
			ok=0
		elif [ "$(curl -sf http://127.0.0.1:7749/violations)" != "[]" ]; then
			echo "janitizerd: GET /violations did not serve the empty log" >&2
			ok=0
		elif ! curl -sf 'http://127.0.0.1:7749/trace?limit=5' >/dev/null; then
			echo "janitizerd: GET /trace?limit=5 failed" >&2
			ok=0
		fi
	fi
	kill "$JD_PID" 2>/dev/null || true
	trap - EXIT
	if [ "$ok" != "1" ]; then
		echo "janitizerd: observability smoke failed" >&2
		exit 1
	fi
else
	echo "janitizerd smoke: skipped (no curl)"
fi

echo "== 3-node fleet check =="
# The fleet's traffic mixes (every tool, batches, a killed member) run
# in-process in internal/cluster's tests; this checks the same fleet as
# processes. One module is posted to each of three janitizerd members in
# turn: the three answers must be byte-identical, at least one must come
# from a sibling (X-Cache: peer; with three members one of the first two
# requests always lands on a non-owner), and the members'
# janitizer_cluster_peer_fill_total must sum above zero.
if ! command -v curl >/dev/null 2>&1; then
	echo "fleet check: skipped (no curl)"
else
	go build -o /tmp/janitizerd-ci ./cmd/janitizerd
	FLEET_DIR=$(mktemp -d)
	cat > "$FLEET_DIR/fleet.c" <<'EOF'
int main() {
    char *p = malloc(32);
    strcpy(p, "fleet");
    int n = strlen(p);
    free(p);
    return n;
}
EOF
	go run ./cmd/jcc -O2 -o "$FLEET_DIR/fleet.jef" "$FLEET_DIR/fleet.c" > /dev/null
	FLEET_PEERS="127.0.0.1:7751,127.0.0.1:7752,127.0.0.1:7753"
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7751 -cachedir "$FLEET_DIR/n1" -peers "$FLEET_PEERS" &
	N1_PID=$!
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7752 -cachedir "$FLEET_DIR/n2" -peers "$FLEET_PEERS" &
	N2_PID=$!
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7753 -cachedir "$FLEET_DIR/n3" -peers "$FLEET_PEERS" &
	N3_PID=$!
	trap 'kill "$N1_PID" "$N2_PID" "$N3_PID" 2>/dev/null || true' EXIT
	for port in 7751 7752 7753; do
		ok=0
		for _ in 1 2 3 4 5 6 7 8 9 10; do
			if curl -sf "http://127.0.0.1:$port/readyz" >/dev/null 2>&1; then
				ok=1
				break
			fi
			sleep 0.3
		done
		if [ "$ok" != "1" ]; then
			echo "fleet check: node on :$port never became ready" >&2
			exit 1
		fi
	done
	for port in 7751 7752 7753; do
		curl -sf -D "$FLEET_DIR/h$port" -o "$FLEET_DIR/r$port" \
			--data-binary @"$FLEET_DIR/fleet.jef" "http://127.0.0.1:$port/analyze?tool=jasan"
	done
	fills=0
	for port in 7751 7752 7753; do
		n=$(curl -sf "http://127.0.0.1:$port/metrics" |
			awk '$1 == "janitizer_cluster_peer_fill_total" { print $2 }')
		fills=$((fills + ${n:-0}))
	done
	kill "$N1_PID" "$N2_PID" "$N3_PID" 2>/dev/null || true
	trap - EXIT
	if ! cmp "$FLEET_DIR/r7751" "$FLEET_DIR/r7752" || ! cmp "$FLEET_DIR/r7751" "$FLEET_DIR/r7753"; then
		echo "fleet check: members answered the same module with different bytes" >&2
		exit 1
	fi
	if ! cat "$FLEET_DIR"/h77* | tr -d '\r' | grep -qi '^X-Cache: peer$'; then
		echo "fleet check: no response was filled from a sibling (X-Cache: peer)" >&2
		exit 1
	fi
	if [ "$fills" -le 0 ]; then
		echo "fleet check: janitizer_cluster_peer_fill_total is 0 on every member" >&2
		exit 1
	fi
	rm -rf "$FLEET_DIR"
	echo "fleet check: byte-identical across 3 members, $fills peer fill(s)"
fi

echo "== bench: cell matrix, static, obs =="
# Full-suite cell matrix writing BENCH_CELLS.json: every scheme on the DBM
# with cost attribution plus the rewrite schemes on the static and hybrid
# backends, one record per cell. In short mode (CI_SHORT=1) the full
# 28-workload sweeps are replaced by two-workload smokes that still enforce
# the exact component-sum identity (Cells errors on any mismatch) and the
# native-parity checks (every grid cell hard-errors on any exit/output
# divergence from native), plus a negative smoke: jexp must reject an
# unknown workload name rather than print an empty figure.
if [ "${CI_SHORT:-0}" = "1" ]; then
	echo "bench: full sweep skipped (CI_SHORT=1); running cells + static + jtsan + obs smokes"
	go run ./cmd/jexp -parallel 4 -o /tmp/cells-smoke.json cells mcf lbm
	if go run ./cmd/jexp fig7 nosuch > /dev/null 2>&1; then
		echo "jexp accepted the unknown workload name \"nosuch\""
		exit 1
	fi
	go run ./cmd/jexp -parallel 4 -o /tmp/static-smoke.json static
	go run ./cmd/jexp -parallel 4 jtsan mcf lbm > /tmp/jtsan-smoke.txt
	# The obs smoke still enforces the full disabled-path invariant: every
	# cell's plain and observed runs must be cycle-exact bit-identical (jexp
	# obs hard-errors on any divergence).
	go run ./cmd/jexp -parallel 4 obs mcf lbm > /tmp/obs-smoke.json
else
	scripts/bench.sh
fi

echo "CI OK"
