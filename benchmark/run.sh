#!/usr/bin/env bash
# Wire-to-wire router benchmark: build, run, check (benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME]... [--seed S] [--seconds T]
#                    [--trace [0|1]] [--repeat N] [--smoke]
#
# Without --workload every workload in BENCHMARK.json runs. --repeat N runs
# each one N times with seeds S, S+1, ... starting at --seed S and
# summarizes the spread. Each run measures --seconds T, which defaults to
# run_seconds from BENCHMARK.json and is how a harness that reads that file
# passes it; --smoke measures 1 s. Each run prints its JSON result as one
# line on stdout; the build log, tables and summaries go to stderr. The
# exit status is non-zero when a build, a run or a check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="build-bench"

workloads=()
seed=1
seconds=""
trace=0
repeat=1
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) seconds=1; shift ;;
    -h | --help) sed -n '2,13p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

declared() { python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); $1"; }
[ -n "$seconds" ] || seconds="$(declared 'print(b["run_seconds"])')"
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(declared 'print("\n".join(w["name"] for w in b["workloads"]))')

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_PROJECT_packetshader_INCLUDE="$root/benchmark/targets.cmake" >&2
fi
cmake --build "$build" --target ps_bench -j "$(nproc)" >&2

results="$build/results.txt"
: > "$results"
status=0
for workload in "${workloads[@]}"; do
  for ((r = 0; r < repeat; r++)); do
    line=""
    line="$("$build/benchmark/ps_bench" --workload "$workload" --seed "$((seed + r))" \
      --seconds "$seconds" --trace "$trace")" || status=1
    printf '%s %s\n' "$workload" "$line" >> "$results"
    printf '%s\n' "$line"
  done
done
python3 benchmark/check_results.py --trace "$trace" "$results" >&2 || status=1
exit "$status"
