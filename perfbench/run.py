#!/usr/bin/env python3
"""Builds and runs the ccsim regime benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds libccsim
and the benchmark binary ccsim_perfbench (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only check the build is up to date.
Build output goes to stderr; the binary's report goes to stdout, and its
last line is the JSON result.
Exits non-zero without a result when the build fails, e.g. when the
repository sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ccsim_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "ccsim_perfbench")


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(target, "perfbench-work")
    return subprocess.run(
        [binary, *argv, "--work-dir", work_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
