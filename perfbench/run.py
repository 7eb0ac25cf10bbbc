#!/usr/bin/env python3
"""Build the dbmeta benchmark from source and run one workload, or all.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (into _build/ of the checkout),
runs it with the same arguments, and passes its output through.  The
last line is one JSON object {"correct", "attempted", "failed",
"metrics"}; before printing it, the script checks that the metric names
are exactly the ones BENCHMARK.json declares for the mode (end_to_end
for --trace 0, per_layer for --trace 1), so the two cannot drift apart.

With --workload all, every workload bench.exe knows runs in turn, each
in its own process with its own time limit, and each JSON line is
checked the same way.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def option(args, name):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def with_workload(args, name):
    out, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg == "--workload":
            skip = True
        elif not arg.startswith("--workload="):
            out.append(arg)
    return out + ["--workload", name]


def run_one(args, declared):
    """Run bench.exe once; print its output after checking its JSON line."""
    try:
        run = subprocess.run([BENCH] + args, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench.exe did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if run.returncode != 0:
        fail(f"bench.exe exited with {run.returncode}", run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1]!r}", 1)
    if list(result["metrics"]) != declared:
        fail(f"metrics {list(result['metrics'])} differ from BENCHMARK.json's {declared}", 1)
    print(lines[-1], flush=True)


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a dbmeta checkout: no dune-project or lib/ here")
    try:
        spec = json.load(open("BENCHMARK.json"))
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    # keep dune's shared cache (outside the checkout) out of the build
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")
    declared = [m["name"] for m in spec["per_layer" if option(args, "--trace") == "1" else "end_to_end"]]
    if option(args, "--workload") == "all":
        names = subprocess.run([BENCH, "--list"], stdout=subprocess.PIPE, text=True,
                               check=True).stdout.split()
        for name in names:
            run_one(with_workload(args, name), declared)
    else:
        run_one(args, declared)


if __name__ == "__main__":
    main()
