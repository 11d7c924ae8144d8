#!/usr/bin/env python3
"""Compare two sets of benchmark reports.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds the reports run.py keeps (<build dir>/perfbench/
reports/*.json), one set per commit. Two separate checks:

  * Exact counters. Every report carries counters that are functions of
    the code and the seed alone (ReplayStats, IG-table digest, history
    fingerprint, rounds, and in traced runs the program's
    paths.nodes_expanded, core.fingerprint.rows, consensus.validations,
    snap.encode.bytes, ...). Any counter that differs between two
    reports of the same workload and seed is flagged: for two sets of
    runs of the same code that is a determinism bug; across a change it
    means the change altered what the program computes.
  * Timing ratios. For each workload and end-to-end metric: each side's
    median and quartile spread over its untraced runs, the change as a
    share of the base median (positive = worse), and whether it exceeds
    the metric's bound. Per-layer medians from traced runs are listed as
    ratios, without bounds.

Exits 1 when a counter differs or a metric is worse than its bound.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load(directory):
    reports = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        reports.append(json.loads(path.read_text()))
    if not reports:
        sys.exit(f"compare: no reports in {directory}")
    return reports


def spread(values):
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def exact_counters(report):
    counters = dict(report["counters"])
    for name, value in report.get("obs_counters", {}).items():
        counters["obs:" + name] = value
    return counters


def compare_counters(base, new):
    """Every (workload, seed, trace) group must carry identical counters."""
    groups = {}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            cfg = r["config"]
            key = (r["workload"], cfg["seed"], bool(cfg["trace"]))
            groups.setdefault(key, []).append((side, exact_counters(r)))
    mismatches = 0
    for (workload, seed, trace), members in sorted(groups.items()):
        _, reference = members[0]
        for side, counters in members[1:]:
            for name in sorted(set(reference) | set(counters)):
                a, b = reference.get(name), counters.get(name)
                if a != b:
                    mismatches += 1
                    print(f"COUNTER {workload} seed={seed} trace={int(trace)} "
                          f"{name}: {a} vs {b} ({side})")
    return mismatches


def metric_values(reports, workload, trace, name):
    return [r["metrics"][name]["value"] for r in reports
            if r["workload"] == workload and bool(r["config"]["trace"]) == trace
            and name in r["metrics"]]


def compare_timings(spec, base, new):
    regressions = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':10} {'metric':34} {'base':>12} {'spread':>7} "
          f"{'new':>12} {'spread':>7} {'worse':>8} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = metric_values(base, workload, False, name)
            b = metric_values(new, workload, False, name)
            if not a or not b:
                continue
            (ma, sa), (mb, sb) = spread(a), spread(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            flag = ""
            if worse > metric["bound"]:
                flag = "  REGRESSION"
                regressions += 1
            elif max(sa, sb) > metric["bound"]:
                flag = "  unresolved (spread above bound)"
            print(f"{workload:10} {name:34} {ma:12.6g} {sa:7.3f} {mb:12.6g} "
                  f"{sb:7.3f} {worse:+8.3f} {metric['bound']:6.2f}{flag}")
    print()
    print(f"{'workload':10} {'per-layer metric':40} {'base':>12} {'new':>12} {'new/base':>9}")
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = metric_values(base, workload, True, metric["name"])
            b = metric_values(new, workload, True, metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            if ma == 0 and mb == 0:
                continue
            ratio = f"{mb / ma:9.3f}" if ma else "      n/a"
            print(f"{workload:10} {metric['name']:40} {ma:12.6g} {mb:12.6g} {ratio}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(pathlib.Path(args.spec).read_text())
    base, new = load(args.base), load(args.new)

    mismatches = compare_counters(base, new)
    print(f"exact counters: {mismatches} mismatch(es)\n")
    regressions = compare_timings(spec, base, new)
    print(f"\nend-to-end regressions beyond bound: {regressions}")
    return 1 if mismatches or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
