#!/usr/bin/env python3
"""Steadiness report: two interleaved sets of runs of one workload.

    python3 perfbench/steadiness.py --workload <name> [--runs 10]
        [--seconds S] [--seed-base 1000]

Runs set A and set B of the same code, each `--runs` runs long, as
A1 B1 B2 A2 A3 B3 ... (alternating which set goes first), where run i of
either set uses seed seed-base + i. It prints every run's value of every
end-to-end metric, then per set the median, the quartiles (Python's
statistics.quantiles(n=4)), the quartile spread as a share of the median,
and the ratio of the two medians. Against the bounds in BENCHMARK.json it
marks every metric, setup_s included, STEADY when both spreads are below a
third of its bound and the medians agree within the bound, and UNSTEADY
otherwise; the exit code is 1 when any metric is UNSTEADY. Printing every
run shows the host's speed levels as run-to-run structure instead of
hiding them in one number. --seconds defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(command)}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    bounds = {}
    seconds = args.seconds
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        seconds = seconds or spec["run_seconds"]
    seconds = seconds or 10

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            values = run_once(args.workload, args.seed_base + i, seconds)
            sets[name].append(values)
            print(f"run {name}{i + 1} seed {args.seed_base + i}: " + " ".join(
                f"{k}={v:.6g}" for k, v in sorted(values.items())),
                flush=True)

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':<16} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'B/A':>7}  verdict")
    all_steady = True
    for metric in sorted(sets["A"][0]):
        stats = {name: spread([run[metric] for run in runs])
                 for name, runs in sets.items()}
        ratio = stats["B"][0] / stats["A"][0] if stats["A"][0] else float(
            "nan")
        bound = bounds.get(metric)
        verdict = ""
        if bound is not None:
            medians_ok = abs(ratio - 1.0) <= bound
            spreads_ok = all(stats[name][3] < bound / 3 for name in stats)
            steady = medians_ok and spreads_ok
            all_steady = all_steady and steady
            verdict = f"{'STEADY' if steady else 'UNSTEADY'} (bound {bound})"
        for name in ("A", "B"):
            med, q1, q3, rel = stats[name]
            print(f"{metric:<16} {name:<3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {rel:>8.3f} "
                  f"{ratio if name == 'B' else float('nan'):>7.3f}  "
                  f"{verdict if name == 'B' else ''}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
