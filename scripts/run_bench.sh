#!/bin/sh
# The repo-canonical perf harness: run every BENCH-emitting harness and
# collect the machine-readable lines into one JSON-lines file that
# scripts/bench_compare.py can diff against a committed baseline.
#
#   scripts/run_bench.sh [--smoke] [--out FILE] [--build-dir DIR]
#
# Full mode runs every BENCH emitter at full duration. --smoke runs the
# reduced-duration subset (bench_micro_lookup, bench_fig11a_ipv4 and
# bench_fig11b_ipv6, each with --smoke) that the bench-smoke CI job
# gates on.
# Output defaults to BENCH_PR5.json in the repo root; each line is the
# JSON object from one `BENCH {...}` line, prefix stripped.
set -e
cd "$(dirname "$0")/.."

mode=full
out=BENCH_PR5.json
build=build
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) mode=smoke ;;
    --out) out="$2"; shift ;;
    --build-dir) build="$2"; shift ;;
    *) echo "usage: $0 [--smoke] [--out FILE] [--build-dir DIR]" >&2; exit 2 ;;
  esac
  shift
done

if [ "$mode" = smoke ]; then
  benches="bench_micro_lookup:--smoke bench_fig11a_ipv4:--smoke bench_fig11b_ipv6:--smoke"
else
  benches="bench_micro_lookup: bench_fig11a_ipv4: bench_fig11b_ipv6: bench_fig12_latency: bench_overload: bench_fib_churn:"
fi

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
: > "$out"

for spec in $benches; do
  bench="${spec%%:*}"
  flag="${spec#*:}"
  bin="$build/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build --target $bench)" >&2
    exit 1
  fi
  echo "=== $bench $flag ==="
  # shellcheck disable=SC2086  # $flag is intentionally word-split
  "$bin" $flag 2>&1 | tee "$log"
  sed -n 's/^BENCH //p' "$log" >> "$out"
done

lines=$(wc -l < "$out")
echo "wrote $lines BENCH lines to $out"
