#!/usr/bin/env python3
"""Builds and runs the election-lifecycle benchmark.

Run from the repository root:

    python3 lifebench/run.py --workload election --seed 1 --seconds 30 --trace 0
    python3 lifebench/run.py --selftest

The first call configures and builds lifebench/ (which compiles the
program's core library from src/ with the repository's own CMake settings)
into .bench_build/lifebench; later calls only rebuild what changed. Build
output goes to stderr, so the benchmark's result stays the last line of
stdout. Traces and the file-backed ledgers of a run live under
.bench_build/lifebench-out and the ledgers are removed when the run ends.

Exit codes: the benchmark's own (0 = correct run), 2 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lifebench")
OUT = os.path.join(ROOT, ".bench_build", "lifebench-out")


def build():
    if shutil.which("cmake") is None:
        print("lifebench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    # An existing tree re-runs its own configure step when a CMakeLists.txt
    # changed.
    steps.append(["cmake", "--build", BUILD, "--parallel", str(len(os.sched_getaffinity(0))),
                  "--target", "lifebench", "lifebench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("lifebench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    if argv[:1] == ["--selftest"]:
        command = [os.path.join(BUILD, "lifebench_selftest"), "--out-dir", OUT]
    else:
        command = [os.path.join(BUILD, "lifebench")] + argv + ["--out-dir", OUT]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
