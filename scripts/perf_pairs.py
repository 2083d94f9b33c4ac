#!/usr/bin/env python3
"""Alternating perfbench pairs: this checkout against another one.

    python3 scripts/perf_pairs.py <other-checkout> --workload W \\
        --pairs N --seconds S --seed K

Runs `perfbench/run.py --workload W --seed K --seconds S --trace 0` in
both checkouts N times, alternating which side runs first, so slow
spells of a shared host fall on both sides alike. For every end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles,
the per-pair ratios (this checkout over the other) and how many pairs
this checkout won. perfbench/run.py runs unchanged; each checkout builds
into its own directory. Exits 1 if any run fails or is not correct, 2 on
bad usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_once(checkout, side, args):
    """One perfbench run in `checkout`: its result line, or None."""
    env = dict(os.environ)
    if env.get("CARGO_TARGET_DIR"):
        # run.py builds under $CARGO_TARGET_DIR/perfbench; the two
        # checkouts must not share that directory.
        env["CARGO_TARGET_DIR"] = os.path.join(env["CARGO_TARGET_DIR"],
                                               "perf_pairs_" + side)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s: no result line (exit %d)\n%s" % (side, done.returncode,
                                                   done.stderr[-2000:]))
        return None
    if done.returncode != 0 or result.get("correct") is not True:
        log("%s: run not correct (exit %d)\n%s" % (side, done.returncode,
                                                   done.stdout[-2000:]))
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(
        description="Alternating perfbench pairs against another checkout.")
    parser.add_argument("other", help="root of the checkout to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    other = os.path.abspath(args.other)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if not os.path.isfile(os.path.join(other, "perfbench", "run.py")):
        parser.error("%s is not a checkout with perfbench/run.py" % other)
    if other == ROOT:
        parser.error("the other checkout is this one")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"other": other, "this": ROOT}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    ok = True
    for pair in range(args.pairs):
        order = ("other", "this") if pair % 2 == 0 else ("this", "other")
        for side in order:
            result = run_once(sides[side], side, args)
            if result is None:
                ok = False
                continue
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
            log("pair %d/%d %-5s %s" % (
                pair + 1, args.pairs, side,
                "  ".join("%s %.6g" % (m["name"],
                                       values[side][m["name"]][-1])
                          for m in metrics)))
    if not ok:
        log("perf_pairs: a run failed or was not correct")
        return 1

    print("workload %s seed %d, %d pairs of %gs runs; this = %s, other = %s"
          % (args.workload, args.seed, args.pairs, args.seconds, ROOT, other))
    for m in metrics:
        name = m["name"]
        print("\n%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        for side in ("other", "this"):
            q1, median, q3 = quartiles(values[side][name])
            print("  %-5s median %-12.6g q1 %-12.6g q3 %-12.6g" %
                  (side, median, q1, q3))
        ratios = [t / o for t, o in zip(values["this"][name],
                                        values["other"][name])]
        wins = sum(1 for r in ratios
                   if (r > 1 if m["better"] == "higher" else r < 1))
        print("  ratios this/other: " + " ".join("%.3f" % r for r in ratios))
        print("  this checkout won %d/%d pairs" % (wins, len(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
