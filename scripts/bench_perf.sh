#!/usr/bin/env sh
# Performance-bench trajectory recorder.
#
#   ./scripts/bench_perf.sh [--quick]
#
# Runs the perf benches — perf_netsim, perf_stream, perf_wire,
# perf_frames, perf_telemetry and appd1_periodicity — and appends every
# machine-readable {"type":"throughput",...}, {"type":"speedup",...} and
# {"type":"overhead",...} JSON line they emit to BENCH_perf.json (one JSON
# object per line, append-only), so the repo carries its own performance
# trajectory across commits — including the telemetry layer's
# enabled-vs-disabled overhead claim. Each recorded line is stamped with
# the git revision ("rev", suffixed "+dirty" for uncommitted changes) and
# the host's core count ("nproc"), so only same-host entries are compared.
# The
# per-benchmark {"type":"bench",...} medians are printed but not recorded:
# the trajectory tracks end-to-end rates, not harness samples.
#
# Pass --quick to forward the benches' quick mode (smaller workloads, fewer
# reps) — used by scripts/verify.sh as a smoke test.
set -eu

cd "$(dirname "$0")/.."

out="BENCH_perf.json"
quick="${1:-}"
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if ! git diff --quiet HEAD 2>/dev/null; then
    rev="$rev+dirty"
fi
nproc=$(nproc 2>/dev/null || echo 0)

run_bench() {
    name="$1"
    echo "==> cargo bench -p iotlan-bench --bench $name --offline -- $quick"
    # shellcheck disable=SC2086  # $quick is intentionally word-split ('' or --quick)
    bench_out=$(cargo bench -p iotlan-bench --bench "$name" --offline -- $quick)
    printf '%s\n' "$bench_out"
    printf '%s\n' "$bench_out" | grep -E '^\{"type":"(throughput|speedup|overhead)"' |
        sed "s/}\$/,\"rev\":\"$rev\",\"nproc\":$nproc}/" >>"$out" || true
}

run_bench perf_netsim
run_bench perf_stream
run_bench perf_wire
run_bench perf_frames
run_bench perf_telemetry
run_bench appd1_periodicity

lines=$(grep -cE '^\{"type":"(throughput|speedup|overhead)"' "$out")
echo "bench_perf: $out now holds $lines trajectory lines"
