#!/usr/bin/env python3
"""CI bench-regression gate.

Compares freshly produced quick-mode bench JSON (bench_* --quick --json)
against committed baselines (BENCH_3.json, ...) and FAILS (exit 1) when a
key metric of any baseline regresses, instead of only uploading
artifacts.

Usage:
    check_bench_regression.py --baseline BENCH_3.json [--baseline ...] \
        --current DIR

Every baseline file carries two sections this script reads:

    "quick_baseline": { "<suite>": <output of bench_<suite> --quick --json> }
    "gate": {
        "default_threshold": 0.25,
        "metrics": [ {"path": "suite.name.metric", ...checks} ]
    }

Per-metric checks (any combination):
    "exact_min": v   hard floor on the current value — for machine-
                     independent correctness bits (csv_identical).
    "max_abs":   v   hard ceiling on the current value — for machine-
                     independent quantities (peak RSS MB, flatness
                     ratios), sized with generous allocator headroom.
    "direction": "higher"|"lower" compare against the recorded baseline
                     value: a "higher"-is-better metric fails when it
                     drops more than `threshold` (default 25%) below
                     baseline; "lower" fails when it rises more than
                     `threshold` above. Wall-clock-sensitive entries
                     carry an explicit looser threshold because CI
                     runners are not the machine the baseline was
                     recorded on.
"""

import argparse
import json
import os
import sys


def metric_value(suite_json, name, metric):
    for entry in suite_json.get("metrics", []):
        if entry.get("name") == name and entry.get("metric") == metric:
            return entry.get("value")
    return None


def check_baseline(baseline_path, current_suite):
    """Print one baseline's checks; returns (problems, metric count)."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    gate = baseline.get("gate", {})
    entries = gate.get("metrics", [])
    default_threshold = gate.get("default_threshold", 0.25)
    quick_baseline = baseline.get("quick_baseline", {})
    if not entries:
        return [f"{baseline_path}: no gate metrics configured"], 0

    failures = []
    for entry in entries:
        path = entry["path"]
        suite, name, metric = path.split(".", 2)
        suite_json = current_suite(suite)
        if suite_json is None:
            failures.append(f"{path}: missing current results "
                            f"({suite}.json not found/parsable)")
            continue
        current = metric_value(suite_json, name, metric)
        if current is None:
            failures.append(f"{path}: metric absent from current run")
            continue

        checks = []
        if "exact_min" in entry:
            ok = current >= entry["exact_min"]
            checks.append((ok, f"must be >= {entry['exact_min']}"))
        if "max_abs" in entry:
            ok = current <= entry["max_abs"]
            checks.append((ok, f"must be <= {entry['max_abs']}"))
        if "direction" in entry:
            base = metric_value(quick_baseline.get(suite, {}), name, metric)
            if base is None:
                failures.append(f"{path}: no quick_baseline value recorded")
                continue
            threshold = entry.get("threshold", default_threshold)
            if entry["direction"] == "higher":
                bound = base * (1.0 - threshold)
                checks.append((current >= bound,
                               f"must be >= {bound:.4g} "
                               f"(baseline {base:.4g} - {threshold:.0%})"))
            else:
                bound = base * (1.0 + threshold)
                checks.append((current <= bound,
                               f"must be <= {bound:.4g} "
                               f"(baseline {base:.4g} + {threshold:.0%})"))

        for ok, describe in checks:
            status = "ok  " if ok else "FAIL"
            print(f"{status} {path} = {current:.6g} ({describe})")
            if not ok:
                failures.append(f"{path} = {current:.6g}: {describe}")
    return [f"{baseline_path}: {f_}" for f_ in failures], len(entries)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed BENCH_*.json with quick_baseline + "
                             "gate; repeat to check several")
    parser.add_argument("--current", required=True,
                        help="directory of freshly produced <suite>.json files")
    args = parser.parse_args()

    current_cache = {}

    def current_suite(suite):
        if suite not in current_cache:
            path = os.path.join(args.current, suite + ".json")
            try:
                with open(path) as f:
                    current_cache[suite] = json.load(f)
            except OSError:
                current_cache[suite] = None
        return current_cache[suite]

    failures = []
    metrics = 0
    for baseline_path in args.baseline:
        print(f"== {baseline_path}")
        problems, count = check_baseline(baseline_path, current_suite)
        failures += problems
        metrics += count

    if failures:
        print(f"\nbench regression gate FAILED ({len(failures)} problem(s)):")
        for f_ in failures:
            print("  -", f_)
        return 1
    print(f"\nbench regression gate passed ({metrics} key metric(s) in "
          f"{len(args.baseline)} baseline(s)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
