#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-bcast --seed 0 \
        --seconds 60 --trace 0

The first call configures and builds perfbench/ (the mpicsel libraries
from src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.
The program runs with every MPICSEL_* variable removed from its
environment, and its standard output is passed through: the last line
is the JSON result. Build output goes to standard error. See
perfbench/METRICS.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def pinned_environment():
    """The caller's environment without the library's MPICSEL_* knobs."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("MPICSEL_"))
    for key in cleared:
        del env[key]
    if cleared:
        print("perfbench: cleared " + " ".join(cleared), file=sys.stderr)
    return env


def main(argv):
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.run([binary, *argv, "--work-dir", work_dir],
                          env=pinned_environment())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
