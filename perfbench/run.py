#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-fresh --seed 1 --seconds 20 --trace 0

The binary and the store libraries it links are built in Release under
.bench_build/perfbench (configure and compile output go to stderr).
The run pins one thread-pool thread and removes FUSION_CACHE_BYTES
from the environment; the binary also sets both itself. With --trace 1
the per-layer table and counters are written to
.bench_out/<workload>-seed<N>.trace.json unless --trace-out names
another file. The last line of standard output is the binary's JSON
result; the exit code is the binary's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: store sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "3"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan-fresh", "zipf-shared", "ingest-degraded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            OUT, "%s-seed%d.trace.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["FUSION_THREADS"] = "1"
    env.pop("FUSION_CACHE_BYTES", None)
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
