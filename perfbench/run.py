#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the harness and omegad from source
with dune (the first run in a fresh checkout compiles everything), then
runs the harness, whose last line of standard output is the result JSON.
Exits non-zero without a result when the build or the run fails. See
perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-batch", "serve-mixed", "serve-hot")
HARNESS = "_build/default/perfbench/bin/harness.exe"
OMEGAD = "_build/default/bin/omegad.exe"
RUN_TIMEOUT_S = 170


def stop_group(proc):
    """Kill whatever is left of the process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("OMEGA_JOBS", None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bin/harness.exe", "./bin/omegad.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Own process group, so a stuck run takes omegad down with it.
    proc = subprocess.Popen(
        [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--omegad", OMEGAD, "--out", "perfbench/out"],
        env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    stop_group(proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
