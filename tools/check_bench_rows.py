#!/usr/bin/env python3
"""Shape checks for the bench rows CI keeps as artifacts.

Usage:
  tools/check_bench_rows.py <kind> <rows.jsonl>
  tools/check_bench_rows.py --self-test

Each kind names one smoke run's JSON-lines output (REPRO_OUT):

  fig1      fig1_lists '^fig1a/' rows carry the sink's full column set
  shadow    crash_recovery 'shadow-overhead' (BENCH_PR4.json):
            count_only and shadow rows for Isb and Isb-Queue at 1 and 8
            threads
  backends  the same figure with the mmap backend (BENCH_PR6.json)
  hashmap   fig_hashmap modes and map-vs-list (BENCH_PR9.json); the map
            must beat the flat list 2x at 8 threads on 1M keys
  reclaim   crash_recovery 'reclaim-matrix' (BENCH_PR10.json): every
            structure x reclaimer x mode cell, tagged with its reclaimer

A passing check prints a short summary and exits 0; a failing one
prints what broke and exits 1.  --self-test runs every kind on
synthetic rows, good and planted-bad, and exits 1 if any verdict is
wrong.
"""

import json
import sys


class CheckError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckError(what)


def require_combos(rows, key, need):
    have = {key(r) for r in rows}
    require(need <= have, "missing rows: %s" % sorted(need - have))


def require_positive_ops(rows):
    require(all(r["ops_per_sec"] > 0 for r in rows),
            "a row has ops_per_sec <= 0")


def require_seed(rows):
    require(all("seed" in r for r in rows), "a row lacks its seed")


def algo_mode_threads(r):
    return (r["algo"], r["mode"], r["threads"])


def check_fig1(rows):
    cols = ("ops_per_sec", "threads", "point_index", "reuse_ratio",
            "coalesced_pwb_per_op", "seed")
    require(rows, "no rows emitted")
    require(all(r.get("figure") == "fig1a" for r in rows),
            "a row is not fig1a")
    for c in cols:
        require(all(c in r for r in rows), "a row lacks %s" % c)
    return ["%d rows ok" % len(rows)]


def mode_ratios(rows, modes):
    need = {(a, m, t) for a in ("Isb", "Isb-Queue") for m in modes
            for t in (1, 8)}
    require_combos(rows, algo_mode_threads, need)
    require_positive_ops(rows)
    base = {(r["algo"], r["threads"]): r["ops_per_sec"]
            for r in rows if r["mode"] == "count_only"}
    return ["%s t=%d %s: vs count_only = %.2f"
            % (r["algo"], r["threads"], r["mode"],
               r["ops_per_sec"] / base[(r["algo"], r["threads"])])
            for r in rows if r["mode"] != "count_only"]


def check_shadow(rows):
    out = mode_ratios(rows, ("count_only", "shadow"))
    require_seed(rows)
    return out


def check_backends(rows):
    return mode_ratios(rows, ("count_only", "shadow", "mmap"))


def check_hashmap(rows):
    need = {("fig-hm-modes", a, m, t)
            for a in ("Isb-HashMap", "Isb-HashMap-Opt")
            for m in ("shared_cache", "private_cache", "count_only",
                      "shadow", "mmap")
            for t in (1, 8)}
    need |= {("fig-hm-vs-list", a, "shared_cache", t)
             for a in ("Isb-HashMap", "Isb") for t in (1, 8)}
    require_combos(rows, lambda r: (r["figure"],) + algo_mode_threads(r),
                   need)
    require_positive_ops(rows)
    require_seed(rows)
    vs = {(r["algo"], r["threads"]): r["ops_per_sec"]
          for r in rows if r["figure"] == "fig-hm-vs-list"}
    ratio = vs[("Isb-HashMap", 8)] / vs[("Isb", 8)]
    require(ratio >= 2.0, "hashmap/list @8t = %.2fx, below 2x" % ratio)
    return ["hashmap/list @8t on 1M keys = %.1fx" % ratio]


RECLAIMERS = {
    "Isb": "ebr", "Isb-Queue": "ebr", "DT-HashMap": "ebr",
    "Isb-List-HP": "hp", "Isb-Queue-HP": "hp", "DT-HashMap-HP": "hp",
    "Isb-List-POP": "pop", "Isb-Queue-POP": "pop", "DT-HashMap-POP": "pop",
}


def check_reclaim(rows):
    rows = [r for r in rows if r["figure"] == "reclaim-matrix"]
    need = {(a, m, t) for a in RECLAIMERS for m in ("count_only", "shadow")
            for t in (1, 4)}
    require_combos(rows, algo_mode_threads, need)
    require_positive_ops(rows)
    require(all(r["reclaimer"] == RECLAIMERS[r["algo"]] for r in rows),
            "a row carries the wrong reclaimer")
    require_seed(rows)
    return ["%d rows ok" % len(rows)]


CHECKS = {
    "fig1": check_fig1,
    "shadow": check_shadow,
    "backends": check_backends,
    "hashmap": check_hashmap,
    "reclaim": check_reclaim,
}


def parse(text):
    try:
        return [json.loads(line) for line in text.splitlines()]
    except ValueError as e:
        raise CheckError("malformed JSON line: %s" % e)


def verdict(kind, text):
    """The check's summary lines; raises CheckError on failure."""
    rows = parse(text)
    try:
        return CHECKS[kind](rows)
    except (KeyError, TypeError, ZeroDivisionError) as e:
        raise CheckError("a row lacks a field or value: %r" % e)


# ---------------------------------------------------------------------
# Self-test: synthetic good rows per kind, then planted defects.


def row(figure, algo, mode, threads, ops=1000.0, **extra):
    r = {"figure": figure, "algo": algo, "mode": mode, "threads": threads,
         "ops_per_sec": ops, "seed": 1}
    r.update(extra)
    return r


def good_rows(kind):
    if kind == "fig1":
        return [row("fig1a", "Isb", "shared_cache", t, point_index=t,
                    reuse_ratio=0.5, coalesced_pwb_per_op=0.0)
                for t in (1, 2)]
    if kind in ("shadow", "backends"):
        modes = ("count_only", "shadow") + (("mmap",) if kind == "backends"
                                            else ())
        return [row("shadow-overhead", a, m, t) for a in ("Isb", "Isb-Queue")
                for m in modes for t in (1, 8)]
    if kind == "hashmap":
        rows = [row("fig-hm-modes", a, m, t)
                for a in ("Isb-HashMap", "Isb-HashMap-Opt")
                for m in ("shared_cache", "private_cache", "count_only",
                          "shadow", "mmap") for t in (1, 8)]
        return rows + [row("fig-hm-vs-list", a, "shared_cache", t,
                           ops=3000.0 if a == "Isb-HashMap" else 1000.0)
                       for a in ("Isb-HashMap", "Isb") for t in (1, 8)]
    return [row("reclaim-matrix", a, m, t, reclaimer=rc)
            for a, rc in RECLAIMERS.items()
            for m in ("count_only", "shadow") for t in (1, 4)]


def jsonl(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


def planted(kind):
    """(name, text) pairs the check must reject."""
    rows = good_rows(kind)
    bad = [("empty file", ""),
           ("malformed line", jsonl(rows) + "{\"figure\":\n")]
    if kind == "fig1":
        bad.append(("missing column",
                    jsonl([{k: v for k, v in r.items() if k != "reuse_ratio"}
                           for r in rows])))
        bad.append(("wrong figure", jsonl([dict(r, figure="fig1b")
                                           for r in rows])))
    else:
        bad.append(("missing combination", jsonl(rows[1:])))
        bad.append(("zero throughput",
                    jsonl([dict(rows[0], ops_per_sec=0.0)] + rows[1:])))
    if kind in ("shadow", "hashmap", "reclaim"):
        bad.append(("missing seed",
                    jsonl([{k: v for k, v in r.items() if k != "seed"}
                           for r in rows])))
    if kind == "hashmap":
        bad.append(("map not 2x the list",
                    jsonl([dict(r, ops_per_sec=1000.0) for r in rows])))
    if kind == "reclaim":
        bad.append(("wrong reclaimer",
                    jsonl([dict(rows[0], reclaimer="ebr"
                                if rows[0]["reclaimer"] != "ebr" else "hp")]
                          + rows[1:])))
    return bad


def self_test():
    wrong = []
    for kind in CHECKS:
        try:
            verdict(kind, jsonl(good_rows(kind)))
        except CheckError as e:
            wrong.append("%s: good rows rejected: %s" % (kind, e))
        for name, text in planted(kind):
            try:
                verdict(kind, text)
                wrong.append("%s: %s accepted" % (kind, name))
            except CheckError:
                pass
    for w in wrong:
        print("self-test: " + w, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if wrong else "ok"))
    return 1 if wrong else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    kind, path = argv[1], argv[2]
    try:
        with open(path) as f:
            lines = verdict(kind, f.read())
    except (CheckError, OSError) as e:
        print("%s %s: FAILED: %s" % (kind, path, e), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
