#!/usr/bin/env python3
"""The pjsb benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run from the root of a checkout. It builds pjsb and the harness from
source (perfbench/CMakeLists.txt), replays the committed golden traces,
generates the workload's Lublin'99 traces from --seed, runs the workload
for --seconds and prints one JSON result line last: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. Exits 1 when a check fails, 2 on bad usage. README.md here
describes the workloads and the metrics.
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Generator parameters of each workload's traces (model: Lublin'99):
# `traces` independent files of `jobs` jobs each, for a machine of
# `nodes` nodes at offered load `load`, and the program configuration
# they run under.
WORKLOADS = {
    "stream_fcfs": {"nodes": 64, "load": 0.4, "jobs": 300000, "traces": 1,
                    "scheduler": "fcfs", "mode": "offline", "streaming": 1},
    "wide_easy": {"nodes": 1024, "load": 0.7, "jobs": 100000, "traces": 1,
                  "scheduler": "easy", "mode": "offline", "streaming": 0},
    # Near saturation the cost of a conservative pass swings with the
    # queue depth a trace happens to build, so this workload replays
    # many short independent traces instead of one long one.
    "deep_conservative": {"nodes": 256, "load": 0.9, "jobs": 10000,
                          "traces": 12, "scheduler": "conservative",
                          "mode": "offline", "streaming": 0},
    # The daemon's spec is fixed in daemon.cpp: scheduler=easy nodes=128.
    "daemon_mixed": {"nodes": 128, "load": 0.7, "jobs": 1500, "traces": 1,
                     "mode": "daemon"},
}

HARNESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kwargs)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = run(["cmake", "-S", "perfbench", "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], 300,
                        stdout=sys.stderr)
        if configure.returncode != 0:
            return None
    made = run(["cmake", "--build", build_dir, "-j", "4"], 840,
               stdout=sys.stderr)
    if made.returncode != 0:
        return None
    return build_dir


def note_flags(swf_path):
    """Replay flags a golden trace pins in its ;Note: header."""
    notes = []
    with open(swf_path) as f:
        for line in f:
            if not line.startswith(";"):
                break
            if line.startswith(";Note:"):
                notes.append(line[len(";Note:"):])
    return [token for pair in re.findall(r"(--[a-z-]+) (\d+)", " ".join(notes))
            for token in pair]


def check_goldens(swf_tool):
    """Replay every committed golden; returns (attempted, failed names)."""
    goldens = sorted(glob.glob(os.path.join(ROOT, "data", "golden",
                                            "*.decisions")))
    failed = []
    for golden in goldens:
        name = os.path.basename(golden)[:-len(".decisions")]
        trace_name, scheduler = name.rsplit("_", 1)
        swf = os.path.join(ROOT, "data", trace_name + ".swf")
        result = run([swf_tool, "validate", swf, scheduler, golden]
                     + note_flags(swf), 60, capture_output=True, text=True)
        if result.returncode != 0:
            failed.append("golden " + name)
            log(result.stdout + result.stderr)
    return len(goldens), failed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: run from the root of a pjsb checkout (no src/)")
        return 2
    build_dir = build()
    if build_dir is None:
        log("perfbench: build failed")
        return 1
    harness = os.path.join(build_dir, "pjsb_perfbench")
    swf_tool = os.path.join(build_dir, "examples", "swf_tool")

    golden_count, golden_failures = check_goldens(swf_tool)

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        trace_files = []
        for i in range(workload["traces"]):
            path = os.path.join(work, "workload-%d.swf" % i)
            gen = run([harness, "gen", "--jobs", str(workload["jobs"]),
                       "--nodes", str(workload["nodes"]),
                       "--load", str(workload["load"]),
                       "--seed", str(args.seed * 100 + i), "--out", path], 120)
            if gen.returncode != 0:
                log("perfbench: trace generation failed")
                return 1
            trace_files.append(path)

        cmd = [harness, workload["mode"], "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if workload["mode"] == "offline":
            cmd += ["--trace-files", ",".join(trace_files),
                    "--scheduler", workload["scheduler"],
                    "--nodes", str(workload["nodes"]),
                    "--streaming", str(workload["streaming"])]
        else:
            # Relative to ROOT, the working directory of the harness and
            # the daemon, so the socket path stays short.
            cmd += ["--trace-file", trace_files[0], "--swf-tool", swf_tool,
                    "--work-dir", os.path.relpath(work, ROOT),
                    "--jobs", str(workload["jobs"])]
        done = run(cmd, HARNESS_TIMEOUT_S, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            log("perfbench: harness failed")
            return 1
        raw = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = golden_failures + raw["failures"]
    attempted = golden_count + raw["attempted"]
    failed = len(golden_failures) + raw["failed"]
    values = raw["metrics"]
    metrics = {}
    for metric in wanted:
        # A layer this workload does not exercise reads 0.
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0),
                                   "unit": metric["unit"]}

    print("workload %s seed %d trace %d: %d operations, %d failed, "
          "ops_failed_ratio %.6f" % (args.workload, args.seed, args.trace,
                                     attempted, failed,
                                     failed / max(attempted, 1)))
    for name in sorted(values):
        if name.startswith("n."):
            print("  %-30s %d" % (name, values[name]))
    for name, metric in metrics.items():
        print("  %-30s %.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in failures:
        print("  FAILED: " + failure)
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
