#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload N times and summarize.

    python3 perfbench/steady.py --workload halo_stream --runs 10
    python3 perfbench/steady.py --workload node_solve --runs 10 --other ../parent

Each run uses its own seed (--first-seed, --first-seed + 1, ...) and the
length BENCHMARK.json gives (or --seconds). With --other, runs alternate
between this checkout and the checkout at that path (each runs its own
perfbench/run.py from its own root and build directory), starting with
the other side on odd pairs, so two builds are measured under the same
host conditions. For every metric the script prints the median, the
first and third quartiles (Python's statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, plus the share of failed operations; the
bounds in BENCHMARK.json are set from these spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(root: Path, workload: str, seed: int, seconds: int, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"steady.py: run failed in {root} (seed {seed})")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(label: str, results):
    print(f"\n{label}: {len(results)} runs")
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"  correct in every run: {correct}; failed shares: {sorted(shares)}")
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        medians[name] = med
        print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {unit}")
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--other", type=Path, help="second checkout to alternate with")
    args = ap.parse_args()

    here = Path(__file__).resolve().parent.parent
    seconds = args.seconds or json.loads((here / "BENCHMARK.json").read_text())["run_seconds"]
    sides = [("this", here)] + ([("other", args.other.resolve())] if args.other else [])
    results = {label: [] for label, _ in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        for label, root in order:
            r = one_run(root, args.workload, seed, seconds, args.trace)
            results[label].append(r)
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{label} seed {seed}: {line}", flush=True)
    medians = {label: summarize(f"{args.workload} [{label}]", rs) for label, rs in results.items()}
    if args.other:
        print("\nmedian ratio other / this:")
        for name, m in medians["this"].items():
            ratio = medians["other"][name] / m if m else float("nan")
            print(f"  {name:<32} {ratio:>8.3f}")


if __name__ == "__main__":
    main()
