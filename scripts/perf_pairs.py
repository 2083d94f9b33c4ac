#!/usr/bin/env python3
"""Alternating perfbench pairs: this checkout against another one.

    python3 scripts/perf_pairs.py <other-checkout> --workload W[,W...]|all \\
        --pairs N --seconds S --seed K[,K...]

Runs `perfbench/run.py --workload W --seed K --seconds S --trace 0` in
both checkouts N times per workload, alternating which side runs first,
so slow spells of a shared host fall on both sides alike. `all` names
every workload of BENCHMARK.json. Pair i runs every workload with the
i-th seed of the list, taken round-robin, and visits the workloads in
turn, so each workload sees the same seeds and the same stretch of the
host. For every workload and every end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the gap between the medians
beside the other checkout's interquartile range, the per-pair ratios
(this checkout over the other) and how many pairs this checkout won.
perfbench/run.py runs unchanged; each checkout builds into its own
directory. Exits 1 if any run fails or is not correct, 2 on bad usage.
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


def run_once(checkout, side, workload, seed, seconds):
    """One perfbench run in `checkout`: its result line, or None."""
    env = dict(os.environ)
    if env.get("CARGO_TARGET_DIR"):
        # run.py builds under $CARGO_TARGET_DIR/perfbench; the two
        # checkouts must not share that directory.
        env["CARGO_TARGET_DIR"] = os.path.join(env["CARGO_TARGET_DIR"],
                                               "perf_pairs_" + side)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s %s: no result line (exit %d)\n%s" % (
            side, workload, done.returncode, done.stderr[-2000:]))
        return None
    if done.returncode != 0 or result.get("correct") is not True:
        log("%s %s: run not correct (exit %d)\n%s" % (
            side, workload, done.returncode, done.stdout[-2000:]))
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def comma_list(text, convert, what):
    items = [item.strip() for item in text.split(",")]
    if not all(items):
        raise argparse.ArgumentTypeError("empty item in %s list" % what)
    try:
        return [convert(item) for item in items]
    except ValueError:
        raise argparse.ArgumentTypeError("bad %s list: %s" % (what, text))


def summarize(workload, values, metrics, pairs, seeds):
    print("\nworkload %s, %d pairs, seeds %s" % (
        workload, pairs, ",".join(str(s) for s in seeds)))
    for m in metrics:
        name = m["name"]
        print("  %s (%s, %s is better)" % (name, m["unit"], m["better"]))
        stats = {}
        for side in ("other", "this"):
            stats[side] = quartiles(values[side][name])
            q1, median, q3 = stats[side]
            print("    %-5s median %-12.6g q1 %-12.6g q3 %-12.6g" %
                  (side, median, q1, q3))
        gap = stats["this"][1] - stats["other"][1]
        iqr = stats["other"][2] - stats["other"][0]
        print("    median gap this - other %.6g, other's interquartile "
              "range %.6g" % (gap, iqr))
        ratios = [t / o for t, o in zip(values["this"][name],
                                        values["other"][name])]
        wins = sum(1 for r in ratios
                   if (r > 1 if m["better"] == "higher" else r < 1))
        print("    ratios this/other: " + " ".join("%.3f" % r for r in ratios))
        print("    this checkout won %d/%d pairs" % (wins, len(ratios)))


def main():
    parser = argparse.ArgumentParser(
        description="Alternating perfbench pairs against another checkout.")
    parser.add_argument("other", help="root of the checkout to compare with")
    parser.add_argument("--workload", required=True,
                        help="comma list of workloads, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", required=True,
                        type=lambda text: comma_list(text, int, "seed"),
                        help="comma list of seeds, rotated pair by pair")
    args = parser.parse_args()
    other = os.path.abspath(args.other)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if not os.path.isfile(os.path.join(other, "perfbench", "run.py")):
        parser.error("%s is not a checkout with perfbench/run.py" % other)
    if other == ROOT:
        parser.error("the other checkout is this one")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload == "all":
        workloads = known
    else:
        try:
            workloads = comma_list(args.workload, str, "workload")
        except argparse.ArgumentTypeError as e:
            parser.error(str(e))
        unknown = [w for w in workloads if w not in known]
        if unknown:
            parser.error("unknown workload %s (BENCHMARK.json has %s)" %
                         (",".join(unknown), ",".join(known)))
        if len(set(workloads)) != len(workloads):
            parser.error("a workload is named twice")

    sides = {"other": other, "this": ROOT}
    values = {w: {side: {m["name"]: [] for m in metrics} for side in sides}
              for w in workloads}
    ok = True
    for pair in range(args.pairs):
        seed = args.seed[pair % len(args.seed)]
        order = ("other", "this") if pair % 2 == 0 else ("this", "other")
        for workload in workloads:
            results = {}
            for side in order:
                results[side] = run_once(sides[side], side, workload, seed,
                                         args.seconds)
            if None in results.values():
                ok = False
                continue
            for side in order:
                for m in metrics:
                    values[workload][side][m["name"]].append(
                        results[side]["metrics"][m["name"]]["value"])
                log("pair %d/%d seed %d %-17s %-5s %s" % (
                    pair + 1, args.pairs, seed, workload, side,
                    "  ".join("%s %.6g" % (m["name"],
                                           values[workload][side][m["name"]][-1])
                              for m in metrics)))
    if not ok:
        log("perf_pairs: a run failed or was not correct")
        return 1

    print("%d pairs of %gs runs; this = %s, other = %s" %
          (args.pairs, args.seconds, ROOT, other))
    seeds = [args.seed[p % len(args.seed)] for p in range(args.pairs)]
    for workload in workloads:
        summarize(workload, values[workload], metrics, args.pairs,
                  sorted(set(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
