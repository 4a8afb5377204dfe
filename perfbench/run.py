#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/src, see main.cpp).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload warm_door --seed 1 --seconds 10 --trace 0

configures and builds perfbench/CMakeLists.txt into .bench_build (Release),
prints a stamp line (nproc, build type, git SHA) and then the benchmark's
own output, whose first line names the binary's build type and whose last
line is the JSON result. --trace 1 makes the traced per-layer run and
writes its spans to .bench_build/spans-<workload>.jsonl.

Steadiness mode runs one workload several times, one seed each, and prints
every end-to-end metric's median and quartile spread next to its bound in
BENCHMARK.json. Runs that are not correct are measured too, then listed,
and make the mode exit 1. It refuses to report when the binary says it is
not a Release build:

    python3 perfbench/run.py --steady 5 --workload cold_lp --seconds 10
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TYPE = "Release"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (when needed) and builds the benchmark; False on failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = None
    if os.path.exists(cache):
        with open(cache) as handle:
            for line in handle:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    configured = line.strip().split("=", 1)[1]
    if configured != BUILD_TYPE:
        command = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja") and not os.path.exists(cache):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def stamp(build_type):
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "build_type": build_type, "git_sha": sha}


def run_once(workload, seed, seconds, trace, capture):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        # One file per workload, overwritten by its next traced run.
        command += ["--spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    if not capture:
        return subprocess.run(command, cwd=ROOT).returncode, None
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return done.returncode, done.stdout.strip().splitlines()


def binary_build_type(lines):
    """The build type from the binary's first line, 'perfbench build X, ...'."""
    words = lines[0].replace(",", " ").split() if lines else []
    return words[2] if words[:2] == ["perfbench", "build"] and len(words) > 2 else None


def steady(args):
    """Repeated runs: median and quartile spread of every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {}
    build_type = None
    incorrect = []
    for run in range(args.steady):
        seed = args.seed + run
        code, lines = run_once(args.workload, seed, args.seconds, 0, True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            log("run with seed %d printed no result (exit code %d)" % (seed, code))
            return 1
        if code != 0 or not result["correct"]:
            # Still measured; the mode reports the seed and fails at the end.
            incorrect.append(seed)
            log("run with seed %d is not correct (exit code %d):" % (seed, code))
            log("\n".join(line for line in lines if line.startswith("CHECK FAILED")))
        build_type = binary_build_type(lines)
        if build_type != BUILD_TYPE:
            log("steadiness mode refuses to report from a %s build" % build_type)
            return 2
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})))
    print(json.dumps({"stamp": stamp(build_type), "workload": args.workload,
                      "runs": args.steady, "seconds": args.seconds}))
    print("%-16s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-16s %14.6f %8.4f %8s" % (name, median, spread, bounds.get(name, "-")))
    if incorrect:
        print("not correct: seeds %s" % " ".join(map(str, incorrect)))
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="runs of the steadiness mode (0 = one plain run)")
    args = parser.parse_args()

    if not build():
        log("benchmark build failed")
        return 1
    if args.steady:
        return steady(args)
    print(json.dumps({"stamp": stamp(BUILD_TYPE)}), flush=True)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
