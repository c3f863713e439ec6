#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build tree is $CARGO_TARGET_DIR when
set, else .bench_build; build output goes to stderr so the last line of
stdout is the result JSON printed by the benchmark binary. The working
directory (results, and cobrowse's on-disk session store) is always
.bench_build/work under the checkout, so the store sits on the checkout's
filesystem wherever the build tree is.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", "rcb_perfbench"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        # Configure once; later builds re-run it themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "rcb_perfbench")
    work_dir = os.path.join(ROOT, ".bench_build", "work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
