#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload specgen --seed 1 --seconds 15 --trace 0

It configures an optimised (Release) CMake tree of perfbench/ in
$CARGO_TARGET_DIR (default .bench_build), builds it, times the workload's
set-up in fresh processes, runs the workload, prints the host context and
then, as the last line, the result JSON. The exit code is non-zero when
the build fails, the run fails or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed in this many processes (the run's own included) and
# reported as their median, so one slow start does not decide setup_s.
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 840
# Slack on top of --seconds for the reference pass or episode, the last
# operation overrunning the deadline, and the traced run's replays.
RUN_SLACK_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over the program's sources, so a run names the code it
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=os.path.dirname(
                                          ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["specgen", "session_campaign",
                                 "session_probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.SubprocessError) as err:
        log("perfbench: build failed:", err)
        return 1

    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    load_before = os.getloadavg()
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc = subprocess.run([binary, "setup"] + common, env=env,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                log(proc.stderr)
                log("perfbench: set-up failed with exit code",
                    proc.returncode)
                return 1
            setup_samples.append(last_json(proc.stdout)["setup_s"])
    try:
        proc = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--out", out_dir],
            env=env, capture_output=True, text=True,
            timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the run did not finish within %d s"
            % (args.seconds + RUN_SLACK_S))
        return 1
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    try:
        result = last_json(proc.stdout)
    except ValueError:
        result = None
    if result is None:
        log("perfbench: the run printed no result (exit code %d)"
            % proc.returncode)
        return 1
    build_info = {}
    for line in proc.stdout.splitlines():
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])

    metrics = result["metrics"]
    if "setup_s" in metrics:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)

    host = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "commit": git_commit(), "source_digest": source_digest(),
        "setup_samples_s": setup_samples,
    }
    host.update(build_info)
    if args.trace:
        host["chrome_trace"] = os.path.join(out_dir, "trace.json")
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"host": host, "result": result}, f, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
