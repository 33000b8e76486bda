"""Run the benchmark repeatedly and print how steady each metric is.

Run from the repository root::

    python3 perfbench/stability.py [--workloads campaign,explore]
        [--runs 10] [--sets 2] [--seconds 20] [--first-seed 1]

Every workload runs ``--runs`` times per set, each run on its own seed
(``--first-seed``, ``--first-seed + 1``, ...; set k reuses the same
seeds).  With two sets the runs alternate between the sets, so slow
drift on the machine lands on both.  For every end-to-end metric the
table gives the median, the quartiles (``statistics.quantiles(n=4)``),
min and max, the spread ``(Q3 - Q1) / median`` and, with two sets, the
change of the second median against the first.  The bounds in
BENCHMARK.json were set from this output (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "campaign-2w", "resume")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    # run.py exits non-zero when a check fails or no result was printed.
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}"
        )
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    values = defaultdict(list)  # (set, workload, metric) -> values
    failed_share = defaultdict(set)
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in workloads:
            order = range(args.sets) if index % 2 == 0 else (
                reversed(range(args.sets)))
            for which in order:
                result = run_once(workload, seed, args.seconds)
                failed_share[workload].add(
                    (result["failed"], result["attempted"]))
                for name, metric in result["metrics"].items():
                    values[(which, workload, name)].append(metric["value"])
                print(f"set {which + 1} {workload} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.4g}"
                    for n, m in result["metrics"].items()), flush=True)
    print()
    print(f"{'workload':12} {'metric':28} {'set':>3} {'median':>10} "
          f"{'Q1':>10} {'Q3':>10} {'min':>10} {'max':>10} {'spread':>7} "
          f"{'vs set1':>8}")
    for workload in workloads:
        names = sorted({k[2] for k in values if k[1] == workload})
        for name in names:
            first = None
            for which in range(args.sets):
                stats = summarize(values[(which, workload, name)])
                shift = ""
                if first is None:
                    first = stats["median"]
                elif first:
                    shift = f"{stats['median'] / first - 1:+.2%}"
                print(f"{workload:12} {name:28} {which + 1:>3} "
                      f"{stats['median']:>10.4g} {stats['q1']:>10.4g} "
                      f"{stats['q3']:>10.4g} {stats['min']:>10.4g} "
                      f"{stats['max']:>10.4g} {stats['spread']:>7.2%} "
                      f"{shift:>8}")
        shares = {f / a for f, a in failed_share[workload]}
        print(f"{workload:12} failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
