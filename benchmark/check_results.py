#!/usr/bin/env python3
"""Check ps_bench results against BENCHMARK.json and summarize repeats.

usage: check_results.py [--benchmark BENCHMARK.json] --trace 0|1 RESULTS

RESULTS holds one "WORKLOAD JSON" line per run, as benchmark/run.sh writes
it. Every line must be a correct result of a declared workload that
carries exactly the declared metrics of its level (end_to_end for
--trace 0, per_layer for --trace 1), each with its declared unit and a
finite value. Prints each run's metrics and, for workloads run more than
once, the median, quartiles, min and max of every metric, and the spread
(Q3 - Q1) / median that the end-to-end bounds are judged against.
Exits 1 on the first malformed result or bad declaration. Stdlib only.
"""

import argparse
import json
import math
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"check_results: {message}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(bench, trace):
    level = "per_layer" if trace else "end_to_end"
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            if not NAME.match(metric["name"]):
                fail(f"bad metric name {metric['name']!r}")
            if not UNIT.match(metric["unit"]):
                fail(f"bad unit {metric['unit']!r} of {metric['name']}")
            if metric["better"] not in ("higher", "lower"):
                fail(f"bad 'better' of {metric['name']}")
            if section == "end_to_end" and not 0 <= metric["bound"] <= 0.25:
                fail(f"bound of {metric['name']} outside [0, 0.25]")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        fail("a metric name is declared twice")
    if "setup_s" not in [m["name"] for m in bench["end_to_end"]]:
        fail("setup_s is not declared")
    return {m["name"]: m["unit"] for m in bench[level]}


def check_line(workload, result, units, workloads):
    where = f"{workload}: "
    if workload not in workloads:
        fail(where + "undeclared workload")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(where + f"result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(where + "run is not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(where + f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail(where + "attempted < 1")
    metrics = result["metrics"]
    for name in sorted(set(units) - set(metrics)):
        fail(where + f"missing metric {name}")
    for name in sorted(set(metrics) - set(units)):
        fail(where + f"undeclared metric {name}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            fail(where + f"{name} has keys {sorted(entry)}")
        if entry["unit"] != units[name]:
            fail(where + f"{name} in {entry['unit']!r}, declared {units[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(where + f"{name} = {value!r} is not a finite number")


def summarize(workload, runs, units):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8}")
    for name in units:
        values = [run["metrics"][name]["value"] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
              f"{max(values):12.6g} {spread:8.3f}  {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("results")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    units = declared_metrics(bench, args.trace)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {}
    with open(args.results) as f:
        for line in f:
            workload, _, text = line.strip().partition(" ")
            try:
                result = json.loads(text)
            except json.JSONDecodeError:
                fail(f"{workload}: no JSON result line")
            check_line(workload, result, units, workloads)
            runs.setdefault(workload, []).append(result)
            shown = "  ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload}: {shown}")
    if not runs:
        fail("no results")
    for workload, results in runs.items():
        if len(results) >= 4:  # fewer give extrapolated quartiles
            summarize(workload, results, units)
    print(f"\ncheck_results: {sum(len(r) for r in runs.values())} runs ok")


if __name__ == "__main__":
    main()
