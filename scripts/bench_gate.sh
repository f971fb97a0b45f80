#!/bin/sh
# Regression gate for the pipeline benchmark: re-runs tastebench
# -benchpipeline and compares each mode's p50 against the checked-in
# BENCH_10.json, failing on a >15% regression. Stdlib tooling only.
#
#   scripts/bench_gate.sh [BASELINE]    (default BENCH_10.json)
#
# Latency comparisons are only honest back-to-back on the same machine, so
# the gate first checks that the baseline's platform, CPU count, and Go
# version match the current host; on any mismatch it prints why and exits 0
# (skip, not pass) — a laptop must not "fail" a gate recorded in CI. The
# comparison is per (mode, gomaxprocs) pair; matrix points the baseline
# never recorded are ignored, and so are baseline entries the fresh run no
# longer produces. The benchpipeline run itself still enforces byte parity
# with sequential mode, so a skipped latency gate does not skip
# correctness.
set -eu

BASELINE="${1:-BENCH_10.json}"
THRESHOLD_PCT=15
cd "$(dirname "$0")/.."

if [ ! -f "$BASELINE" ]; then
    echo "bench_gate: no baseline $BASELINE (record one with: make bench-pipeline)" >&2
    exit 1
fi

NCPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
PLATFORM="$(go env GOOS)/$(go env GOARCH)"
GOVER="$(go env GOVERSION)"

base_platform="$(sed -n 's/^  "platform": "\([^"]*\)",$/\1/p' "$BASELINE" | head -1)"
base_gover="$(sed -n 's/^  "go_version": "\([^"]*\)",$/\1/p' "$BASELINE" | head -1)"
base_cpus="$(sed -n 's/^  "cpus": \([0-9]*\),$/\1/p' "$BASELINE" | head -1)"

if [ "$base_platform" != "$PLATFORM" ] || [ "$base_cpus" != "$NCPU" ] || [ "$base_gover" != "$GOVER" ]; then
    echo "bench_gate: baseline is $base_platform/${base_cpus}cpu/$base_gover, host is $PLATFORM/${NCPU}cpu/$GOVER" >&2
    echo "bench_gate: not a back-to-back same-machine comparison; skipping the latency gate" >&2
    exit 0
fi

# GOMAXPROCS matrix mirroring bench.sh, so fresh entries line up with the
# baseline's (mode, gomaxprocs) keys.
MATRIX=""
for gp in 1 2 4; do
    [ "$gp" -le "$NCPU" ] && MATRIX="$MATRIX $gp"
done

TMP="$(mktemp)"
trap 'rm -f "$TMP" "$TMP.base" "$TMP.fresh"' EXIT
TBENCH="$(mktemp -d)/tastebench"
go build -o "$TBENCH" ./cmd/tastebench
for gp in $MATRIX; do
    echo "bench_gate: GOMAXPROCS=$gp tastebench -benchpipeline" >&2
    GOMAXPROCS="$gp" "$TBENCH" -benchpipeline -pipeline-tables 200 \
        -repeats 3 -loadgen-seed 7 >>"$TMP" || {
        echo "bench_gate: benchpipeline FAILED" >&2
        exit 1
    }
done
rm -f "$TBENCH"

# extract <file>: one "name gomaxprocs p50_ms" row per benchmark record.
extract() {
    sed -n 's/.*"name":"\([^"]*\)".*"gomaxprocs":\([0-9]*\).*"p50_ms":\([0-9.eE+-]*\).*/\1 \2 \3/p' "$1"
}

extract "$BASELINE" >"$TMP.base"
extract "$TMP" >"$TMP.fresh"

status=0
awk -v pct="$THRESHOLD_PCT" '
NR == FNR { base[$1 "|" $2] = $3; next }
{
    key = $1 "|" $2
    if (!(key in base)) next
    old = base[key]; new = $3
    delta = (old > 0) ? 100 * (new - old) / old : 0
    verdict = (delta > pct) ? "FAIL" : "ok"
    printf "bench_gate: %-28s gomaxprocs=%s p50 %.1fms -> %.1fms (%+.1f%%) %s\n", $1, $2, old, new, delta, verdict
    if (delta > pct) bad++
    compared++
}
END {
    if (compared == 0) { print "bench_gate: no comparable (mode, gomaxprocs) pairs between baseline and fresh run"; exit 1 }
    if (bad > 0) { printf "bench_gate: %d of %d entries regressed more than %s%% at p50\n", bad, compared, pct; exit 1 }
    printf "bench_gate: all %d entries within %s%% of baseline\n", compared, pct
}' "$TMP.base" "$TMP.fresh" || status=$?
exit $status
