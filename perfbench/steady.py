"""Check that the benchmark is steady: two sets of runs of the same code agree.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--workloads NAME ...] [--runs 10] [--sets 2]
                                [--first-seed 1]

Each set runs ``perfbench/run.py`` once per workload for each of ``--runs``
seeds (every run gets a seed of its own), with the run length that
BENCHMARK.json fixes. For every workload and end-to-end metric it reports
the median of each set, the spread of each set (the distance between the
first and third quartile as a share of the median) and whether the sets
agree within the metric's bound: every spread but that of setup_s stays
within the bound, and no set's median differs from the first set's by more
than the bound, in either direction. The spread of setup_s is exempt, as in
the benchmark's acceptance rule: set-up is a fraction of a second of
imports, and on a shared 2-vCPU host its spread over ten runs reached 0.32
where the session times' stayed below 0.22; only its median is held to the
bound. The exit code is 0 when everything agrees and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def judge(results: dict, metrics: list[dict]) -> bool:
    """Print one line per workload and metric; True when all sets agree."""
    agree = True
    for workload, sets in results.items():
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            # a later set much faster than the first is host drift too
            shift = max(abs(m - medians[0]) / medians[0] for m in medians)
            ok = shift <= bound and (name == "setup_s" or max(spreads) <= bound)
            agree &= ok
            steady = "steady" if max(spreads) < bound / 3 else "noisy"
            print(f"{workload:18s} {name:20s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.6g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  shift {shift:.3f}  {'agree' if ok else 'DISAGREE'} ({steady})")
    return agree


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for workload in args.workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                results[workload][s].append(result)
                print(f"set {s} seed {seed} {workload}: correct {result['correct']} "
                      f"failed {result['failed']} of {result['attempted']}", flush=True)
    agree = judge(results, bench["end_to_end"])
    correct = all(r["correct"] and not r["failed"]
                  for sets in results.values() for runs in sets for r in runs)
    print(f"sets agree: {agree}; every run correct: {correct}")
    return 0 if agree and correct else 1


if __name__ == "__main__":
    sys.exit(main())
