#!/bin/sh
# Build and run the test suite under the sanitizer presets: ASan+UBSan
# (-DPS_SANITIZE=address), TSan (-DPS_SANITIZE=thread), and standalone
# UBSan (-DPS_SANITIZE=undefined, with -fno-sanitize-recover so any UB
# aborts the test), each in its own build tree. Pass a preset name
# ("address", "thread", or "undefined") to run just that one.
#
# Those trees are RelWithDebInfo, which defines NDEBUG, as does Release.
# The "debug" preset, never run by default, builds with no sanitizer and
# -DCMAKE_BUILD_TYPE=Debug, so every assert() is live; CI runs the FIB
# suites under it:
#   scripts/run_sanitizers.sh debug fib
#
# An optional second argument is a ctest -R regex to run a subset. The
# overload-control / liveness layer leans hard on cross-thread protocols
# (heartbeat publication, quarantine adoption, watermark reads), so its
# suites are worth a focused TSan pass while iterating — the trailing
# 'Chaos' also pulls in IntegrityChaos, the corruption-under-churn suite:
#   scripts/run_sanitizers.sh thread \
#     'Supervisor|SupervisorChaos|OverloadControl|Admission|LinkFlap|FibChurn|RouterBackpressure|Chaos'
#
# The telemetry layer has its own cross-thread surface — snapshot() racing
# single-writer counters, the tracer's per-slot seqlock, the GPU/CPU
# differential paths — collected under the "telemetry" shorthand:
#   scripts/run_sanitizers.sh thread telemetry
# In particular TelemetryConservation runs a snapshot thread against live
# traffic: a data race in MetricsRegistry::snapshot() fails that suite
# under TSan.
#
# The FIB layer — the one-pass DIR-24-8 build's radix counts and stack
# sweep, the flat RIB's wrap-around erase, the commit paths, the settling
# of queued announces while another thread announces, and the updater —
# is collected under the "fib" shorthand. CI runs it under ASan+UBSan,
# TSan and standalone UBSan before the full suites, so a mistake there
# fails fast:
#   scripts/run_sanitizers.sh "address thread undefined" fib
#
# The "lockfree" shorthand selects by ctest *label* instead of regex: it
# runs the LockfreeSuite entry (SPSC ring, WakeSignal, SpscFanIn, epoch
# — the protocols the ps::mc litmus suite model-checks, here exercised
# at full concurrency under the sanitizer). CI runs it under all three
# presets on every PR before the full suites:
#   scripts/run_sanitizers.sh "address thread undefined" lockfree
set -e
cd "$(dirname "$0")/.."

telemetry_filter='TelemetryConservation|MetricsRegistry|PipelineTrace|BenchLine|Exporter|StageBreakdown|GpuCpuDifferential'
fib_filter='Fib|Ipv4Apply|Ipv4Table|Ipv4Edge|Ipv6Table|Ipv6Edge'

presets="${1:-address thread undefined}"
filter="$2"
label=""
if [ "$filter" = "telemetry" ]; then
  filter="$telemetry_filter"
elif [ "$filter" = "fib" ]; then
  filter="$fib_filter"
elif [ "$filter" = "lockfree" ]; then
  label="lockfree"
  filter=""
fi

for preset in $presets; do
  build_dir="build-san-$preset"
  echo "=== $preset ($build_dir) ==="
  if [ "$preset" = "debug" ]; then
    cmake -B "$build_dir" -DCMAKE_BUILD_TYPE=Debug
  else
    cmake -B "$build_dir" -DPS_SANITIZE="$preset" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build_dir" --target ps_tests -j "$(nproc)"
  # halt_on_error makes a sanitizer report fail the test run instead of
  # continuing past it.
  ASAN_OPTIONS=halt_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$build_dir" --output-on-failure \
      ${label:+-L "$label"} ${filter:+-R "$filter"}
done
