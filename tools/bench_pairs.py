#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised.

Usage:
  tools/bench_pairs.py --parent DIR --change DIR --workload NAME
                       [--seeds N] [--first-seed S] [--seconds T]
                       [--trace 0|1]
  tools/bench_pairs.py --self-test

DIR is the root of a source tree (a checkout of each commit).  For each
seed S, S+1, ..., S+N-1 the script runs `python3 DIR/perfbench/run.py
--workload NAME --seed S --seconds T --trace X` once in each tree, the
order alternating from pair to pair (parent first on even pairs, change
first on odd ones) so drift in the host's load hits both sides alike.

It then prints, for every metric of the workload's result: each side's
median and interquartile range (IQR, q3 - q1), the change's median
relative to the parent's, and how many pairs the change won (better in
the metric's direction from the change tree's BENCHMARK.json; higher
when the metric is not listed there).  A last row gives each side's
`failed` total.  The exit code is 1 if any run failed its output check
(non-zero exit, `correct` not true, or `failed` > 0), else 0.

--self-test summarises planted rows, good and bad, and exits 1 if any
figure or verdict is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order stats."""
    s = sorted(xs)
    if len(s) == 1:
        return s[0], s[0], s[0]
    q = statistics.quantiles(s, n=4, method="inclusive")
    return q[0], statistics.median(s), q[2]


def directions(spec):
    """Metric name -> True when higher is better, from BENCHMARK.json."""
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = m.get("better", "higher") == "higher"
    return out


def run_ok(run):
    """Whether a run passed its output check."""
    r = run.get("result")
    return (run.get("returncode") == 0 and r is not None
            and r.get("correct") is True and r.get("failed", 1) == 0)


def summarize(pairs, higher_better):
    """pairs: [(parent_run, change_run)], each run {"returncode", "result"}.
    Returns (rows, failed) where rows are per-metric dicts and failed is
    {"parent": n, "change": n, "bad_runs": n}."""
    names = []
    for p, c in pairs:
        for run in (p, c):
            r = run.get("result") or {}
            for name in r.get("metrics", {}):
                if name not in names:
                    names.append(name)
    rows = []
    for name in names:
        pv, cv, wins, n = [], [], 0, 0
        up = higher_better.get(name, True)
        for p, c in pairs:
            a = ((p.get("result") or {}).get("metrics") or {}).get(name)
            b = ((c.get("result") or {}).get("metrics") or {}).get(name)
            if a is not None:
                pv.append(a["value"])
            if b is not None:
                cv.append(b["value"])
            if a is not None and b is not None:
                n += 1
                if (b["value"] > a["value"]) if up else (b["value"] < a["value"]):
                    wins += 1
        row = {"metric": name, "higher_better": up, "wins": wins, "pairs": n}
        for side, vals in (("parent", pv), ("change", cv)):
            if vals:
                q1, med, q3 = quartiles(vals)
                row[side] = {"median": med, "iqr": q3 - q1}
            else:
                row[side] = None
        rows.append(row)
    failed = {"parent": 0, "change": 0, "bad_runs": 0}
    for p, c in pairs:
        for side, run in (("parent", p), ("change", c)):
            failed[side] += (run.get("result") or {}).get("failed", 0)
            failed["bad_runs"] += not run_ok(run)
    return rows, failed


def format_table(rows, failed):
    lines = ["%-26s %26s %26s %9s %7s" % ("metric", "parent median [IQR]",
                                          "change median [IQR]", "change",
                                          "wins")]

    def cell(side):
        if side is None:
            return "-"
        return "%.6g [%.3g]" % (side["median"], side["iqr"])

    for r in rows:
        rel = "-"
        if r["parent"] and r["change"] and r["parent"]["median"] != 0:
            rel = "%+.1f%%" % (100.0 * (r["change"]["median"] /
                                        r["parent"]["median"] - 1))
        lines.append("%-26s %26s %26s %9s %7s" % (
            r["metric"], cell(r["parent"]), cell(r["change"]), rel,
            "%d/%d" % (r["wins"], r["pairs"])))
    lines.append("%-26s %26d %26d" % ("failed", failed["parent"],
                                      failed["change"]))
    if failed["bad_runs"]:
        lines.append("%d run(s) failed their output check"
                     % failed["bad_runs"])
    return "\n".join(lines)


def run_tree(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = None
    lines = out.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"returncode": out.returncode, "result": result}


def measure(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        higher_better = directions(json.load(f))
    pairs = []
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            got[side] = run_tree(tree, args.workload, seed, args.seconds,
                                 args.trace)
            r = got[side]["result"] or {}
            print("seed %d %-6s %s %s" % (
                seed, side, "ok  " if run_ok(got[side]) else "FAIL",
                json.dumps({k: v["value"] for k, v in
                            r.get("metrics", {}).items()})),
                  flush=True)
        pairs.append((got["parent"], got["change"]))
    rows, failed = summarize(pairs, higher_better)
    print(format_table(rows, failed))
    return 1 if failed["bad_runs"] else 0


def self_test():
    def run(ops, p99, failed=0, correct=True, rc=0):
        return {"returncode": rc, "result": {
            "correct": correct, "failed": failed, "metrics": {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "p99_ns": {"value": p99, "unit": "ns"}}}}

    up = {"ops_per_s": True, "p99_ns": False}
    problems = []

    def expect(what, cond):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    good = [(run(100, 50), run(150, 40)), (run(110, 52), run(140, 45)),
            (run(90, 48), run(95, 60)), (run(105, 51), run(160, 41))]
    rows, failed = summarize(good, up)
    by = {r["metric"]: r for r in rows}
    expect("medians", by["ops_per_s"]["parent"]["median"] == 102.5 and
           by["ops_per_s"]["change"]["median"] == 145)
    expect("IQR interpolates", abs(by["ops_per_s"]["parent"]["iqr"] - 8.75)
           < 1e-9)
    expect("wins follow the higher-is-better direction",
           by["ops_per_s"]["wins"] == 4 and by["ops_per_s"]["pairs"] == 4)
    expect("wins follow the lower-is-better direction",
           by["p99_ns"]["wins"] == 3)
    expect("clean pairs fail nothing", failed == {"parent": 0, "change": 0,
                                                  "bad_runs": 0})
    expect("the table names every metric and failed",
           all(k in format_table(rows, failed)
               for k in ("ops_per_s", "p99_ns", "failed")))

    for what, bad in (("failed > 0", run(150, 40, failed=2)),
                      ("correct false", run(150, 40, correct=False)),
                      ("non-zero exit", run(150, 40, rc=1)),
                      ("no result line", {"returncode": 0, "result": None})):
        _, f = summarize(good[:1] + [(run(100, 50), bad)], up)
        expect("a planted run with %s is a bad run" % what,
               f["bad_runs"] == 1)
    _, f = summarize([(run(100, 50, failed=3), run(150, 40))], up)
    expect("failed is counted per side", f["parent"] == 3 and
           f["change"] == 0)
    rows, _ = summarize([(run(100, 50), {"returncode": 1, "result": None})],
                        up)
    expect("a side with no result has no median",
           rows[0]["change"] is None and rows[0]["pairs"] == 0)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
