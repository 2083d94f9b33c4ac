#!/usr/bin/env python3
"""CI bench gate: hold quick-run bench results to the bounds in one file.

Usage:
    check_bench_regression.py --gate bench/gate.json --current DIR

DIR holds one <suite>.json per bench, written by `<suite> --quick
--json DIR/<suite>.json`. The gate file lists checks:

    {"checks": [{"path": "<suite>.<row>.<metric>",
                 "exact_min": v | "max_abs": v,
                 "why": "<one line>"}, ...]}

    "exact_min": v   the current value must be >= v;
    "max_abs":   v   the current value must be <= v.

Every bound is machine-independent: an identity bit, a memory ceiling, a
ratio of two timings taken in the same process, or a fixed floor with
wide headroom. No check compares against a number recorded elsewhere.

A check fails when its suite file or metric is missing, when the value
is not a number, or when it misses a bound. An entry with no bound or
with a key not listed above fails too, naming the path, so a misspelled
bound cannot switch a check off. Exits 0 when every check holds, 1 when
any fails.
"""

import argparse
import json
import math
import os
import sys

BOUNDS = {
    "exact_min": (">=", lambda value, bound: value >= bound),
    "max_abs": ("<=", lambda value, bound: value <= bound),
}
KEYS = {"path", "why"} | set(BOUNDS)


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def entry_problem(entry):
    """Why a gate entry cannot be checked, or None when it can."""
    if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
        return "entry %r has no path" % (entry,)
    path = entry["path"]
    if path.count(".") < 2:
        return "%s: path is not <suite>.<row>.<metric>" % path
    unknown = sorted(set(entry) - KEYS)
    if unknown:
        return "%s: unknown key(s) %s" % (path, ", ".join(unknown))
    bounds = [key for key in BOUNDS if key in entry]
    if not bounds:
        return "%s: no bound (one of %s)" % (path, ", ".join(BOUNDS))
    for key in bounds:
        if not is_number(entry[key]):
            return "%s: %s is not a number" % (path, key)
    return None


def load_checks(gate_path):
    """The gate's entries and the problems that make some uncheckable."""
    with open(gate_path) as f:
        gate = json.load(f)
    checks = gate.get("checks") if isinstance(gate, dict) else None
    if not isinstance(checks, list) or not checks:
        return [], ["%s: no checks" % gate_path]
    problems = [p for p in map(entry_problem, checks) if p]
    return checks, problems


def metric_value(suite_json, row, metric):
    for entry in suite_json.get("metrics", []):
        if entry.get("name") == row and entry.get("metric") == metric:
            return entry.get("value")
    return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--gate", required=True,
                        help="gate file, e.g. bench/gate.json")
    parser.add_argument("--current", required=True,
                        help="directory of <suite>.json bench results")
    args = parser.parse_args()

    checks, failures = load_checks(args.gate)
    suites = {}
    for entry in checks:
        if entry_problem(entry):
            continue
        path = entry["path"]
        suite, row, metric = path.split(".", 2)
        if suite not in suites:
            try:
                with open(os.path.join(args.current, suite + ".json")) as f:
                    suites[suite] = json.load(f)
            except (OSError, ValueError):
                suites[suite] = None
        if suites[suite] is None:
            failures.append("%s: no readable %s.json in %s"
                            % (path, suite, args.current))
            continue
        value = metric_value(suites[suite], row, metric)
        if not is_number(value):
            failures.append("%s: metric missing or not a number (%r)"
                            % (path, value))
            continue
        for key, (op, holds) in BOUNDS.items():
            if key not in entry:
                continue
            ok = holds(value, entry[key])
            print("%s %s = %.6g (must be %s %g)"
                  % ("ok  " if ok else "FAIL", path, value, op, entry[key]))
            if not ok:
                failures.append("%s = %.6g: must be %s %g"
                                % (path, value, op, entry[key]))

    if failures:
        print("\nbench gate FAILED (%d problem(s)):" % len(failures))
        for failure in failures:
            print("  -", failure)
        return 1
    print("\nbench gate passed (%d check(s) in %s)." % (len(checks), args.gate))
    return 0


if __name__ == "__main__":
    sys.exit(main())
