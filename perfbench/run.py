#!/usr/bin/env python3
"""Repository benchmark: build gw_perfbench from this checkout and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

The first run configures and builds the library sources under ../src into
`.bench_build/` (or $CARGO_TARGET_DIR); later runs only re-check the build.
Build output goes to stderr, so the last line on stdout is always the
benchmark's JSON result. Without the library sources the build fails and
the script exits non-zero without printing a result.

Workloads: churn-poisson, solve-cold, classed-1m, sim-switch (see
BENCHMARK.json for why each exists). churn-poisson always runs its
2-worker pool.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn-poisson", "solve-cold", "classed-1m", "sim-switch")
# Default seed per workload, used when --seed is omitted. Each workload also
# has a held-out validation seed (9000 + the default, see BENCHMARK.json)
# that no change should be tuned on: a claimed gain must also hold there.
DEFAULT_SEEDS = {"churn-poisson": 1, "solve-cold": 2, "classed-1m": 3,
                 "sim-switch": 4}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds gw_perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "gw_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    sys.stdout.flush()
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
