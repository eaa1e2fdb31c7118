#!/usr/bin/env python3
"""Build and run perfbench, the repository's benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload map-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary is configured and built with CMake under
.bench_build/ on first use; later runs only re-check the build.  Build
output goes to stderr, so the last line of stdout is the binary's JSON
result.  The exit code is the binary's: non-zero when the build fails,
the run times out, or any output check fails.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)  # configured for another source tree
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2"],
                   stdout=sys.stderr, check=True)


def build_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("include", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_binary(args, capture=False):
    return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                          capture_output=capture, text=True)


def self_test():
    """Checker plants, then a short run of every workload in both trace
    modes whose result must name exactly BENCHMARK.json's metrics."""
    failures = 0
    if run_binary(["--self-test"]).returncode != 0:
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d" % (workload["name"], trace)
            out = run_binary(["--workload", workload["name"], "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--small"], capture=True)
            problems = []
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
                problems.append("no JSON result line")
            if result is not None:
                if out.returncode != 0 or result["correct"] is not True:
                    problems.append("output check failed")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append("attempted/failed %s/%s"
                                    % (result["attempted"], result["failed"]))
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = result["metrics"]
                if set(got) != set(want):
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(set(want) - set(got)), sorted(set(got) - set(want))))
                for name, m in got.items():
                    if name in want and m["unit"] != want[name]:
                        problems.append("%s unit %s != %s" % (name, m["unit"], want[name]))
                    if not math.isfinite(m["value"]):
                        problems.append("%s is not finite" % name)
                    if group == "end_to_end" and m["value"] <= 0:
                        problems.append("%s is not positive" % name)
            print("%s %s%s" % ("FAIL" if problems else "ok  ", what,
                               ": " + "; ".join(problems) if problems else ""))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        if args.self_test:
            return self_test()
        return run_binary(["--workload", args.workload, "--seed",
                           str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--git-sha",
                           build_id(), "--failures-out", BUILD]).returncode
    except subprocess.TimeoutExpired as e:
        print("perfbench: timed out: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
