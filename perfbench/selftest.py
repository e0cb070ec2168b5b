"""Quick self-test of the benchmark, in well under two minutes.

Usage (from the repository root):

    python3 perfbench/selftest.py

It checks that

- every workload runs at reduced size (``--size quick``), untraced and
  traced, and prints a result whose metric names and units are exactly
  those ``BENCHMARK.json`` lists;
- every check rejects a wrong output: each solution is moved off by
  1e-3, each certification verdict is flipped;
- the benchmark exits with an error and prints no result in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when all of that holds, 1 otherwise.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import gvikit  # noqa: E402

import workloads  # noqa: E402

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL", message)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(spec):
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
            expect(result["correct"] is True, f"{label}: outputs failed their checks: {proc.stderr[-500:]}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
            expect(isinstance(result["failed"], int), f"{label}: failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            if trace == 0:
                zero = [name for name, m in result["metrics"].items() if not m["value"] > 0]
                expect(not zero, f"{label}: end-to-end metrics not positive: {zero}")
            print("ok", label, f"attempted={result['attempted']} failed={result['failed']}")


def check_checks():
    for workload in workloads.WORKLOADS:
        for op in workloads.build(gvikit, workload, 3, workloads.Meter(), "quick"):
            try:
                result = op.run()
            except gvikit.GviError:
                continue
            if getattr(result, "converged", True) is False:
                continue
            if hasattr(result, "solution"):
                wrong = dataclasses.replace(result, solution=result.solution + 1e-3)
            elif op.layer == "convexity_lab":
                flip = {"pass": "fail", "fail": "pass"}
                wrong = [dataclasses.replace(r, verdict=flip[r.verdict]) for r in result]
            else:
                wrong = {n: s + 1e-3 * (1 + s) for n, s in result.items()}
            expect(op.check(result) is None, f"{op.name}: check rejects the package's output")
            expect(op.check(wrong) is not None, f"{op.name}: check accepts a wrong output")
    print("ok checks reject wrong outputs")


def check_fails_without_program():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "small-mix", 0)
    expect(proc.returncode != 0, "bare checkout: exit code 0")
    expect('"metrics"' not in proc.stdout, "bare checkout: printed a result")
    shutil.rmtree(bare)
    print("ok bare checkout fails")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_checks()
    check_results(spec)
    check_fails_without_program()
    print("selftest:", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
