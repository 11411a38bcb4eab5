#!/usr/bin/env python3
"""Builds and runs the sqleqd end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 sqleqd_bench/run.py --workload check_hot --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (sqleqd_bench/CMakeLists.txt)
that compiles the library from ../src in an optimised build. The build
directory is $CARGO_TARGET_DIR/sqleqd_bench, or .bench_build/sqleqd_bench
when the variable is unset. Build output goes to stderr; the benchmark's
stdout is passed through, so its last line is the result JSON object.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check_hot", "check_cold", "reformulate")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        sys.exit("sqleqd_bench: the library sources (src/) are missing; "
                 "run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "sqleqd_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "sqleqd_bench"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as err:
        sys.exit("sqleqd_bench: build failed: %s" % err)

    scratch = os.path.join(build_dir, "scratch-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("sqleqd_bench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
