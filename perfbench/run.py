#!/usr/bin/env python3
"""Builds and runs the PACTree benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload lookup-zipf-int --seed 1 --seconds 10 --trace 0

The load generator (pacbench.cc) and the index library under src/ are built
with CMake into $CARGO_TARGET_DIR (default .bench_build) on every run; the
rebuild is incremental. Pools are created under that directory and removed
afterwards. The last line of stdout is the benchmark's JSON result; build and
progress output go to stderr. Arguments other than the four below (e.g.
--replay, --keys N) are passed to the load generator unchanged.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "pacbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "pacbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: PACTree sources (src/) not found next to perfbench/; "
            "run from a full checkout")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    pool_dir = os.path.join(build_dir, "pools", f"run-{os.getpid()}")
    shutil.rmtree(pool_dir, ignore_errors=True)
    os.makedirs(pool_dir)
    # The program reads PAC_* knobs from the environment; run on defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAC_")}
    env["PAC_POOL_DIR"] = pool_dir
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}.csv")]
    cmd += extra
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(pool_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        log(f"perfbench: load generator exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        log("perfbench: last output line is not a JSON result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
