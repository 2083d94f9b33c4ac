#!/usr/bin/env python3
"""Validate pjsb JSONL event traces against schema v1 or v2.

Usage:
    check_trace_schema.py trace.jsonl [more.jsonl ...]

Checks, per file (see README "Observability" for the schema):
  - every line parses as a flat JSON object with unique keys
  - line 1 is a header record with version 1 or 2 and source "pjsb"
  - every known record type carries its required fields with the
    right JSON types; unknown types are counted, not rejected
    (that's the documented forward-compatibility rule)
  - `why` on start records names a known provenance
  - timestamps of t-carrying records never go backwards
  - start.wait equals t - submit.t for jobs whose submit (or, v2,
    resubmit) is in the trace (wait is -1 only when the submit
    predates the trace)
  - no records after run_end, and end/kill/crash records never exceed
    start records per job id

Schema v2 (fault injection & recovery; README "Failure & recovery")
adds crash/resubmit/restore/drop records, a `reason` on kill, and a
`drops` count on run_end:
  - crash is the node-failure kill (replaces a v1 kill for outage
    deaths) and frees the job like end/kill do
  - resubmit marks a queue re-entry after a kill; its t re-anchors
    the wait check for the job's next start
  - restore only appears for a job that is currently started, with a
    positive resumed work amount
  - drop terminates a job that is NOT running (it was just killed or
    never restarted) with a known reason

Exits 0 when every file is clean, 1 otherwise, printing one line per
problem as `file:line: message`.
"""

import json
import sys

KNOWN_VERSIONS = {1, 2}
PROVENANCES = {"unspecified", "queue_head", "backfill", "reservation",
               "timeshare"}
OUTAGE_PHASES = {"announced", "started", "ended"}
KILL_REASONS = {"outage", "preempt", "walltime"}
DROP_REASONS = {"retry_limit", "walltime_overrun", "cancelled"}

# type -> {field: required JSON type}
REQUIRED = {
    "header": {"version": int, "source": str},
    "submit": {"t": int, "job": int, "procs": int, "estimate": int},
    "start": {"t": int, "job": int, "procs": int, "wait": int, "why": str},
    "end": {"t": int, "job": int, "procs": int, "wait": int, "run": int,
            "restarts": int},
    "kill": {"t": int, "job": int, "procs": int},
    "blocked": {"t": int, "job": int, "predicted_start": int},
    "outage": {"phase": str, "start": int, "end": int, "nodes": int},
    "run_end": {"jobs": int, "kills": int, "makespan": int, "events": int,
                "util": float},
}

# v2-only record types and v2-only required fields on v1 types.
REQUIRED_V2 = {
    "crash": {"t": int, "job": int, "procs": int, "lost": int, "saved": int,
              "attempt": int},
    "resubmit": {"t": int, "job": int, "procs": int, "estimate": int,
                 "attempt": int},
    "restore": {"t": int, "job": int, "resumed": int, "read": int},
    "drop": {"t": int, "job": int, "procs": int, "reason": str,
             "attempt": int},
}
REQUIRED_V2_EXTRA = {
    "kill": {"reason": str},
    "run_end": {"drops": int},
}


def parse_object(line):
    """json.loads rejecting duplicate keys (the schema demands unique)."""
    def no_dupes(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj
    return json.loads(line, object_pairs_hook=no_dupes)


def field_type_ok(value, expected):
    if expected is int:
        # bool is an int subclass in Python; the schema has no booleans.
        return isinstance(value, int) and not isinstance(value, bool)
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def check_file(path):
    problems = []
    submit_time = {}      # job id -> last submit/resubmit t
    started = set()       # job ids with a start not yet ended/killed
    last_t = None
    saw_run_end = False
    counts = {}
    version = None        # from the header; gates the v2 rules

    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        return [f"{path}: cannot open: {e}"]

    with fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.rstrip("\n")
            if not raw:
                problems.append(f"{path}:{lineno}: empty line")
                continue
            try:
                rec = parse_object(raw)
            except ValueError as e:
                problems.append(f"{path}:{lineno}: bad JSON: {e}")
                continue
            if not isinstance(rec, dict):
                problems.append(f"{path}:{lineno}: not a JSON object")
                continue
            rtype = rec.get("type")
            if not isinstance(rtype, str):
                problems.append(f"{path}:{lineno}: missing \"type\"")
                continue
            if saw_run_end:
                problems.append(f"{path}:{lineno}: record after run_end")
            counts[rtype] = counts.get(rtype, 0) + 1

            if lineno == 1 and rtype != "header":
                problems.append(f"{path}:1: first record must be a header, "
                                f"got {rtype!r}")
            if lineno > 1 and rtype == "header":
                problems.append(f"{path}:{lineno}: header after line 1")

            spec = REQUIRED.get(rtype)
            if spec is None and version == 2:
                spec = REQUIRED_V2.get(rtype)
            if spec is not None and version == 2:
                spec = {**spec, **REQUIRED_V2_EXTRA.get(rtype, {})}
            if spec is None:
                continue  # unknown type: forward-compatible, skip
            bad = False
            for field, expected in spec.items():
                if field not in rec:
                    problems.append(
                        f"{path}:{lineno}: {rtype} missing {field!r}")
                    bad = True
                elif not field_type_ok(rec[field], expected):
                    problems.append(
                        f"{path}:{lineno}: {rtype}.{field} has type "
                        f"{type(rec[field]).__name__}, "
                        f"want {expected.__name__}")
                    bad = True
            if bad:
                continue

            if rtype == "header":
                version = rec["version"]
                if version not in KNOWN_VERSIONS:
                    problems.append(
                        f"{path}:{lineno}: schema version {version}, this "
                        f"checker knows {sorted(KNOWN_VERSIONS)}")
                if rec["source"] != "pjsb":
                    problems.append(
                        f"{path}:{lineno}: source {rec['source']!r}")
                continue

            t = rec.get("t")
            if isinstance(t, int):
                if last_t is not None and t < last_t:
                    problems.append(f"{path}:{lineno}: time went backwards "
                                    f"({t} after {last_t})")
                last_t = t

            if rtype in ("submit", "resubmit"):
                submit_time[rec["job"]] = rec["t"]
                if rtype == "resubmit" and rec["attempt"] < 1:
                    problems.append(
                        f"{path}:{lineno}: resubmit for job {rec['job']} "
                        f"with attempt {rec['attempt']} (must be >= 1)")
            elif rtype == "start":
                if rec["why"] not in PROVENANCES:
                    problems.append(f"{path}:{lineno}: unknown provenance "
                                    f"{rec['why']!r}")
                sub = submit_time.pop(rec["job"], None)
                if sub is not None and rec["wait"] != rec["t"] - sub:
                    problems.append(
                        f"{path}:{lineno}: job {rec['job']} wait "
                        f"{rec['wait']} != start {rec['t']} - "
                        f"submit {sub}")
                elif sub is None and rec["wait"] != -1:
                    problems.append(
                        f"{path}:{lineno}: job {rec['job']} started with "
                        f"wait {rec['wait']} but no submit in trace")
                started.add(rec["job"])
            elif rtype in ("end", "kill", "crash"):
                if rec["job"] in started:
                    started.discard(rec["job"])
                else:
                    problems.append(f"{path}:{lineno}: {rtype} for job "
                                    f"{rec['job']} without a start")
                if rtype == "kill" and version == 2 \
                        and rec["reason"] not in KILL_REASONS:
                    problems.append(f"{path}:{lineno}: unknown kill reason "
                                    f"{rec['reason']!r}")
                if rtype == "crash" and (rec["lost"] < 0 or rec["saved"] < 0):
                    problems.append(
                        f"{path}:{lineno}: crash for job {rec['job']} with "
                        f"negative lost/saved work")
            elif rtype == "restore":
                # Emitted right after the start that resumes the job, so
                # the job must be running, and resuming zero work would
                # have been a plain restart (no restore record).
                if rec["job"] not in started:
                    problems.append(f"{path}:{lineno}: restore for job "
                                    f"{rec['job']} that is not running")
                if rec["resumed"] < 1:
                    problems.append(
                        f"{path}:{lineno}: restore for job {rec['job']} "
                        f"resumed {rec['resumed']} (must be >= 1)")
            elif rtype == "drop":
                if rec["reason"] not in DROP_REASONS:
                    problems.append(f"{path}:{lineno}: unknown drop reason "
                                    f"{rec['reason']!r}")
                if rec["job"] in started:
                    problems.append(f"{path}:{lineno}: drop for job "
                                    f"{rec['job']} while it is running")
                submit_time.pop(rec["job"], None)
            elif rtype == "outage":
                if rec["phase"] not in OUTAGE_PHASES:
                    problems.append(f"{path}:{lineno}: unknown outage phase "
                                    f"{rec['phase']!r}")
            elif rtype == "run_end":
                saw_run_end = True

    if counts.get("header", 0) != 1:
        problems.append(f"{path}: expected exactly 1 header record, "
                        f"saw {counts.get('header', 0)}")
    if not saw_run_end:
        problems.append(f"{path}: no run_end record (truncated trace?)")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    status = "FAIL" if problems else "ok"
    print(f"{status} {path}: {summary}")
    return problems


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: check_trace_schema.py trace.jsonl [more.jsonl ...]")
        return 2
    problems = []
    for path in sys.argv[1:]:
        problems.extend(check_file(path))
    for p in problems:
        print(p)
    if problems:
        print(f"trace schema check FAILED ({len(problems)} problem(s))")
        return 1
    print(f"trace schema check passed ({len(sys.argv) - 1} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
