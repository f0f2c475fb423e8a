#!/usr/bin/env python3
"""Builds the pinpoint benchmark driver and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-deep --seed 1 \
        --seconds 20 --trace 0

The driver is built from source into .bench_build/ (or
$CARGO_TARGET_DIR when set) on first use. Its last stdout line is the
JSON result; build output goes to stderr. --record rewrites
perfbench/reference.tsv from the current code instead of checking
against it (only after a deliberate output change).

Exit codes: the driver's (0 ok, 1 a check failed), 2 when the build
fails or the arguments are bad.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train-deep", "zoo-sweep", "serve-stream")
DEFAULT_SEED = 1
# A run must end well inside the 180 s a harness allows it.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the driver. Returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference digests")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    reference = os.path.join(BENCH_DIR, "reference.tsv")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.relpath(reference, ROOT),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--spans", os.path.relpath(os.path.join(
               build_dir, "spans-%s.txt" % args.workload), ROOT)]
    if args.record:
        cmd += ["--record", os.path.relpath(reference, ROOT)]
    # Relative paths keep every command line, and so every output
    # digest, the same in any checkout.
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
