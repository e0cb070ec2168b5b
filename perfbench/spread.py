"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 [--trace 0] [--workload small-mix ...]

Each run is a separate ``run.py`` process, one after another.  For every
workload and metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, and the failed share of attempted operations.  The
table and every raw result go to ``perfbench/out/spread-trace<t>.json``.
These are the figures the README quotes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()

    summary, raw = {}, {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        raw[workload] = runs
        table = {"correct": all(r["correct"] for r in runs),
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in runs})}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0,
                           "min": min(values), "max": max(values)}
        summary[workload] = table

    print()
    for workload, table in summary.items():
        print(f"{workload}: correct={table['correct']} failed_share={table['failed_share']}")
        for name, row in table.items():
            if isinstance(row, dict):
                print(f"  {name:40s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                      f"  spread {100 * row['spread']:.2f}%")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "summary": summary, "runs": raw}, fh, indent=1)


if __name__ == "__main__":
    main()
