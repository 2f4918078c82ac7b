#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload paper-cold|table1|serve-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe from the
checkout's sources with dune (build tree under .bench_build/, dune cache
off), runs it, and prints the benchmark's result object as the last line
of standard output. With --trace 0 it adds the run's peak resident set
size, read from the kernel's accounting of the finished child process.
The exit code is non-zero when the build fails, when an output check
fails, or when no result was produced. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("the repository sources (dune-project, lib/) are missing")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR),
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
    except OSError as e:
        return fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        return fail("build failed")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["paper-cold", "table1", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if build() != 0:
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and returns its own resource usage, so the
        # peak RSS is the benchmark's alone (not the build's)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("the benchmark printed no result (exit %d)" % proc.returncode)
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
