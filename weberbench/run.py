#!/usr/bin/env python3
"""Builds the weber benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 weberbench/run.py --workload batch-meta|stream-durable|serve-mixed \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The first call configures and builds weberbench/ (which compiles the
library from src/) into the build directory named by CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit status is the benchmark's (non-zero when the build fails,
an argument is bad or an output check fails).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "weberbench")
    binary = os.path.join(build_dir, "weberbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    step = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return binary


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("weberbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
