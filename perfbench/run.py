"""gvikit benchmark: run one workload from a seed and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 20 --trace 0

One process, one caller that waits for each result (a closed loop).  The
run first times set-up in fresh interpreters, then makes one warm-up
pass over the workload's operations, then repeats timed passes until
``--seconds`` have gone by.  Every output of every pass is checked
against the independent computations in ``reference.py``.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` the layers are traced
and the result carries the per-layer metrics instead.  The same result,
with a table per operation, is written under ``perfbench/out/``.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: with two cores OpenBLAS
# would otherwise spread example3's dense matvec over both, which makes
# both the times and the order of floating-point reductions vary.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "operator_evals": "count", "peak_rss_mb": "MB"}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'quick' shrinks every input; the self-test uses it")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_gvikit():
    import gvikit

    where = os.path.dirname(os.path.abspath(gvikit.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"gvikit was loaded from {where}, not from {SRC}")
    return gvikit


def measure_setup(workload, seed, size):
    """Median import and build times over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed), size],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    med = {key: statistics.median(s[key] for s in samples) for key in ("import_s", "build_s")}
    med["setup_s"] = statistics.median(s["import_s"] + s["build_s"] for s in samples)
    return med


class PassResult:
    def __init__(self):
        self.seconds = []  # per operation, in op order
        self.evals = 0
        self.failed = []  # names of operations that failed
        self.wrong = []  # (name, message) for outputs that failed their check


def run_pass(gk, ops, meter, tracer=None, tally=None):
    """Run every operation once, timing each; check each output after its timer stops."""
    out = PassResult()
    for op in ops:
        meter.evals = 0
        run = op.run if tracer is None else tracer.wrap("op", op.run)
        start = perf_counter()
        try:
            result = run()
        except gk.GviError as exc:
            result = exc
        seconds = perf_counter() - start
        out.seconds.append(seconds)
        out.evals += meter.evals
        if tracer is not None:
            probe = tracer.digest(tally)
            tally.add_op(op, result, meter.evals, probe, seconds)
        if isinstance(result, gk.GviError) or getattr(result, "converged", True) is False:
            out.failed.append(op.name)
        else:
            message = op.check(result)
            if message is not None:
                out.wrong.append((op.name, message))
        del result  # no report outlives its check
    return out


def main(argv=None):
    args = parse_args(argv)
    gk = import_gvikit()
    import tracing
    import workloads

    setup = measure_setup(args.workload, args.seed, args.size)

    tracer = tracing.Tracer() if args.trace else None
    meter = tracer if tracer is not None else workloads.Meter()
    if tracer is not None:
        tracer.install()
    ops = workloads.build(gk, args.workload, args.seed, meter, args.size)

    passes, tallies = [], []

    def one_pass():
        tally = tracing.Tally() if tracer is not None else None
        passes.append(run_pass(gk, ops, meter, tracer, tally))
        tallies.append(tally)

    one_pass()  # warm-up: fills caches and lazy references, not timed
    deadline = perf_counter() + args.seconds
    while len(passes) < 2 or perf_counter() < deadline:
        one_pass()
    timed = passes[1:]

    attempted = len(ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    for name, message in dict(wrong).items():
        print(f"WRONG {name}: {message}", file=sys.stderr)
    for name in sorted(set(passes[0].failed)):
        print(f"FAILED {name}", file=sys.stderr)

    per_op = [statistics.median(p.seconds[i] for p in timed) for i in range(len(ops))]
    solve_s = sum(per_op)
    if tracer is None:
        values = {
            "setup_s": setup["setup_s"],
            "solve_s": solve_s,
            "operator_evals": statistics.median_low(p.evals for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        per_pass = [
            tracing.layer_metrics(gk, tally, setup["import_s"], setup["build_s"], sum(p.seconds))
            for p, tally in zip(timed, tallies[1:])
        ]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, passes=len(timed),
                  operations=[{"name": op.name, "layer": op.layer, "algorithm": op.algorithm,
                               "median_s": t} for op, t in zip(ops, per_op)])
    if tracer is not None:
        detail["spans"] = {name: {"count": c, "total_s": tot, "self_s": own}
                           for name, (c, tot, own) in sorted(tallies[-1].spans.items())}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
