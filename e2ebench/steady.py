"""Steadiness command: is every end-to-end metric repeatable within its
bound?

Runs ``run.py`` on every workload of ``BENCHMARK.json``, ``--runs`` times
with a different seed each time, alternating the workload order from one
round to the next.  For each metric it prints the median, the quartiles
and the interquartile spread as a share of the median, next to the
metric's bound.  With ``--sets 2`` it does all of that twice and also
checks that the second set's median is no worse than the first's by more
than the bound — the "two sets of runs agree" criterion.  Seeds count up
from SEED0, one per run, so the two sets use different seeds.

    python3 e2ebench/steady.py --runs 10 --sets 2

Exit code 0 when every figure is within its bound, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 1000


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}

    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for set_index in range(args.sets):
        values: Dict[str, Dict[str, List[float]]] = {
            w: {} for w in workloads
        }
        for run in range(args.runs):
            order = workloads if run % 2 == 0 else workloads[::-1]
            for workload in order:
                seed = SEED0 + set_index * args.runs + run
                started = time.monotonic()
                for name, value in run_once(workload, seed,
                                            args.seconds).items():
                    values[workload].setdefault(name, []).append(value)
                print(f"set {set_index + 1} run {run + 1}: {workload} seed "
                      f"{seed} took {time.monotonic() - started:.1f} s",
                      file=sys.stderr, flush=True)
        sets.append(values)

    ok = True
    for workload in workloads:
        print(f"== {workload}")
        print(f"   {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, meta in metrics.items():
            bound = meta["bound"]
            for set_index, values in enumerate(sets):
                figures = spread(values[workload][name])
                good = figures["spread"] <= bound
                ok &= good
                verdict = "ok" if good else "TOO WIDE"
                if good and figures["spread"] > bound / 3:
                    verdict = "ok (over a third of the bound)"
                print(f"   {name:<18} {figures['median']:>11.4f} "
                      f"{figures['q1']:>11.4f} {figures['q3']:>11.4f} "
                      f"{figures['spread']:>8.3f} {bound:>6.2f}  "
                      f"set {set_index + 1}: {verdict}")
            if len(sets) == 2:
                first = spread(sets[0][workload][name])["median"]
                second = spread(sets[1][workload][name])["median"]
                change = (second - first) / first
                worse = change if meta["better"] == "lower" else -change
                good = worse <= bound
                ok &= good
                print(f"   {name:<18} second set vs first: {change:+.3f} "
                      f"({'ok' if good else 'WORSE THAN BOUND'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
