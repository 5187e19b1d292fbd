#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it makes a one-second untraced and
traced run and checks that the result line has exactly the contract's
keys, that every end-to-end (untraced) or per-layer (traced) metric is
printed with its unit, and that the correctness checks pass. It then
forces a failure through the program's fault points and checks that the
run exits non-zero and reports itself incorrect, and checks that a
directory holding only the benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# One fault per workload: the 100th generation task falls in the first
# timed specgen pass (the untimed reference pass runs 71); the 10th
# orchestrator shard chunk fails a round of the first session episode.
FAULTS = {
    "specgen": "site=spec_gen.task,kind=throw,nth=100",
    "session_campaign": "site=orchestrator.worker,kind=throw,nth=10",
    "session_probe": "site=orchestrator.worker,kind=throw,nth=10",
}


def run(workload, trace, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=900)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def check(condition, message, failures):
    if not condition:
        failures.append(message)
        print("FAIL:", message)
    return condition


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            failed_before = len(failures)
            proc, result = run(workload, trace)
            check(proc.returncode == 0,
                  "%s exited %d: %s" % (label, proc.returncode,
                                        proc.stderr[-2000:]), failures)
            if result is None:
                check(False, "%s printed no result" % label, failures)
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  "%s result keys %s" % (label, sorted(result)), failures)
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  "%s correctness: %s" % (label, result), failures)
            got = {name: m.get("unit")
                   for name, m in result.get("metrics", {}).items()}
            check(got == expected[trace],
                  "%s metrics differ from BENCHMARK.json: missing %s, "
                  "unexpected %s" % (
                      label,
                      sorted(set(expected[trace].items()) - set(got.items())),
                      sorted(set(got.items()) - set(expected[trace].items()))),
                  failures)
            if len(failures) == failed_before:
                print("ok:", label, "attempted", result.get("attempted"))

        env = dict(os.environ, KERNELGPT_FAULT_PLAN=FAULTS[workload])
        proc, result = run(workload, 0, env=env)
        if check(proc.returncode != 0 and result is not None and
                 result.get("correct") is False and
                 result.get("failed", 0) > 0,
                 "%s with an injected fault exited %d with %s" % (
                     workload, proc.returncode, result), failures):
            print("ok:", workload, "fails under an injected fault")

    # A directory holding only BENCHMARK.json and the benchmark has no
    # program to build: the run must fail without printing a result.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    bare = os.path.join(build_dir, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "specgen", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, env=env, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if check(proc.returncode != 0 and '"correct"' not in proc.stdout,
             "a bare checkout exited %d with output %r" % (
                 proc.returncode, proc.stdout[-500:]), failures):
        print("ok: a bare checkout fails without a result")

    print("smoke test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
