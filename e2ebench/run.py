#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Configures e2ebench/ with CMake into a build directory inside the checkout
(``$CARGO_TARGET_DIR`` when set, else ``.bench_build``), builds the
``e2ebench`` binary from the repository's own sources, then runs it with the
given arguments. The binary's stdout is passed through unchanged; its last
line is the JSON result. Build output goes to stderr. The exit code is the
binary's (non-zero when an output check failed), or non-zero without a
result when the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no library sources at %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", out, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr) == 0


def main():
    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    return subprocess.call([os.path.join(out, "e2ebench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
