#!/usr/bin/env python3
"""Build and run the discovery benchmark.

    python3 discobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the repository's src/ libraries it links) into the build
directory named by $CARGO_TARGET_DIR, default `.bench_build`; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. Host/configuration records and
span dumps go to `.bench_out/`.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "discobench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"discobench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "discobench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ is missing; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "discobench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "discobench")


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    binary = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = subprocess.run([binary, *args, "--out-dir", out_dir], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
