#!/usr/bin/env python3
"""Builds and runs the svq end-to-end benchmark.

    python3 e2ebench/run.py --workload hot-zipf --seed 7 --seconds 36 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (e2ebench/CMakeLists.txt, on top of the library in src/) under
.bench_build/e2ebench; later calls rebuild only what changed. The last
line of stdout is the run's JSON result; build output goes to
.bench_build/e2ebench/build.log.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"svq sources not found under {ROOT}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    with open(out / "build.log", "a") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = (out / "build.log").read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(step))
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("e2ebench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("e2ebench")
    out_dir = build_dir() / "out"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
