#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 servebench/run.py --workload oltp_point --seed 1 --seconds 10 --trace 0

Configures and builds servebench/ (which compiles the engine from ../src)
into $CARGO_TARGET_DIR (default .bench_build) under the current directory,
runs one workload and relays its report. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics holds
the end_to_end metrics of BENCHMARK.json with --trace 0 and its per_layer
metrics with --trace 1. Build output goes to stderr. Exits non-zero, with no
JSON line, when the build fails, a reply is wrong or a metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "servebench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "servebench",
                 "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("servebench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "servebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit("servebench: unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.abspath(build_root))
    trace_dir = os.path.join(os.path.abspath(build_root), "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        sys.exit("servebench: run failed with code %d" % done.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("servebench: metric %s missing or in another unit"
                     % m["name"])
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
