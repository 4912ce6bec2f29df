#!/usr/bin/env python3
"""Self-test of the step benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, timed and traced, exits 0, passes its
   correctness checks and emits exactly the metrics BENCHMARK.json declares,
   each with its declared unit (and a printed line per metric).
2. With every force scaled by 1.01 (--perturb-force), every MD workload's
   verification fails.
3. In a directory holding only BENCHMARK.json and the benchmark's files (no
   program sources), the benchmark exits non-zero without printing a result.

Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
MD_WORKLOADS = ["copper-serial", "copper-mixed", "water-2rank"]


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", trace, "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: result keys {sorted(r)}")
    return r, lines


def check_metrics(workload):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        what = f"{workload} --trace {trace}"
        r, lines = result(run(workload, trace), what)
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            fail(f"{what}: verification failed\n" + "\n".join(lines))
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != declared:
            fail(f"{what}: metrics {got} != declared {declared}")
        printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
        missing = set(declared) - printed
        if missing:
            fail(f"{what}: no printed line for {sorted(missing)}")
        print(f"ok   {what}: {len(got)} metrics, {r['attempted']} checks passed")


def check_perturbed(workload):
    what = f"{workload} --perturb-force"
    r, lines = result(run(workload, "0", "--perturb-force"), what)
    if r["correct"] or r["failed"] < 1:
        fail(f"{what}: verification did not catch the perturbed forces\n" + "\n".join(lines))
    print(f"ok   {what}: {r['failed']} of {r['attempted']} checks failed, as they must")


def check_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-no-sources")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = run(BENCH["workloads"][0]["name"], "0", cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark ran without the program sources")
    print("ok   without program sources: exit", proc.returncode, "and no result")


def main():
    for w in BENCH["workloads"]:
        check_metrics(w["name"])
    for w in MD_WORKLOADS:
        check_perturbed(w)
    check_without_sources()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
