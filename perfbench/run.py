#!/usr/bin/env python3
"""Build the step benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark and the program's library
sources are compiled into .bench_build/ (or $CARGO_TARGET_DIR) on first use;
later runs only rebuild what changed. Any further arguments (--tiny,
--perturb-force) are passed to the benchmark binary. The binary's output is
passed through; its last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP team size of each rank thread: the rank threads read it from the
# environment, so it is set here (main.cpp explains the choices).
THREADS_PER_RANK = {
    "copper-serial": 4,
    "copper-mixed": 4,
    "water-2rank": 2,
    "train-2rank": 1,
}
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then build incrementally. Returns the binary path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # let the next run configure afresh
            sys.exit("run.py: configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(THREADS_PER_RANK))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = ap.parse_known_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS_PER_RANK[args.workload]))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
