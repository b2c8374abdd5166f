#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (from source, dune's shared cache
off, so nothing is read or written outside the checkout), then runs it.

An untraced run (--trace 0) is split into SUBRUNS processes, run one
after another, each timing S/SUBRUNS seconds on a seed derived from N.
A process as a whole can run faster or slower than the next one for its
whole life (on a 2-vCPU VM about one process in ten ran shard-2pc
15-50% faster than the others, every world of it), so each end-to-end
metric is the median over the processes, which is one of the measured
values.  Attempted and failed are summed, and the run is correct only
if every process was.  A traced run is one process.

Build output goes to standard error.  Each process's human-readable
lines pass through to standard output, and the last line is the JSON
result.  The exit code is 0, 1 if an output check failed, or the first
other non-zero code of the build or a process (then no result is
printed).
"""

import json
import os
import statistics
import subprocess
import sys
import time

SUBRUNS = 5
RUN_TIMEOUT_S = 175


def option(args, name, default):
    """The value after `name` in args, or default."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return default


def with_option(args, name, value):
    return [value if i > 0 and args[i - 1] == name else a for i, a in enumerate(args)]


def run_process(cmd, env, deadline):
    """Run one benchmark process; returns (exit code, parsed result or None)."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    return proc.returncode, result


def combine(results):
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a source checkout (no dune-project here)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # The first run in a checkout also builds; the run's own time starts here.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    args = sys.argv[1:]
    if option(args, "--trace", "0") != "0":
        code, result = run_process([exe] + args, env, deadline)
        if result is not None:
            print(json.dumps(result))
        return code
    try:
        seed = int(option(args, "--seed", "1"))
        seconds = float(option(args, "--seconds", "10"))
    except ValueError:
        print("perfbench: --seed and --seconds take numbers", file=sys.stderr)
        return 2
    results = []
    for i in range(SUBRUNS):
        sub = with_option(with_option(args, "--seed", str(seed * SUBRUNS + i)),
                          "--seconds", repr(seconds / SUBRUNS))
        print("perfbench: process %d of %d" % (i + 1, SUBRUNS))
        code, result = run_process([exe] + sub, env, deadline)
        if code not in (0, 1) or result is None:
            return code or 3
        results.append(result)
    combined = combine(results)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
