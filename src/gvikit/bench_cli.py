"""The `gvi` command line: benchmarking, obstacle error scans, and convexity certification.

Problems, the solver registry, the suite runner and table rendering
live in :mod:`gvikit.registry`; this module only parses options and
config files, calls them, and maps outcomes to exit codes.
"""

from __future__ import annotations

import functools
from dataclasses import fields, replace

import click

from . import convexity_lab
from .core import SolveConfig
from .errors import GviError, ProblemSpecError
from .obstacle_spline import benchmark_problem, max_error
from .registry import ProblemSpec, emit_table, render_table, run_suite


def parse_config_file(path):
    """Parse a flat key-value experiment manifest.

    Lines are `key = value` (or `key value`); blank lines and lines
    starting with # are ignored.  Every key is returned; `gvi bench`
    reads those of `_BENCH_KEYS` and ignores the rest.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            values[key] = val
    return values


# Every manifest key of `gvi bench` and the type its file value is cast
# to; each is also a flag of the same name.  The keys that name a
# SolveConfig field go to the solvers.
_BENCH_KEYS = {
    "problem": str, "n": str, "alg": str, "out": str, "format": str,
    "rho": float, "tol": float, "max_iters": int, "sigma": float, "gamma": float,
}
_SOLVE_KEYS = [field.name for field in fields(SolveConfig) if field.name in _BENCH_KEYS]


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _exit_code(command):
    """Exit with the code the command returns; a handled error is one `error:` line and exit 1."""

    @functools.wraps(command)
    def run(**options):
        try:
            code = command(**options)
        except (GviError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = 1
        raise SystemExit(code)

    return run


@click.group()
def cli():
    """Benchmarks, obstacle error scans, and convexity certification."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Flat key-value manifest; flags override file values.")
@click.option("--problem", default=None, help="Problem id (example2, example3, example4, custom).")
@click.option("--n", default=None, help="Problem size or comma list, e.g. 10,20,50,100.")
@click.option("--alg", default=None, help="Algorithm id or comma list from the registry.")
@click.option("--path", "custom_path", type=click.Path(exists=True), default=None, help="Module path for --problem custom.")
@click.option("--rho", type=float, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--max-iters", type=int, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", type=click.Choice(["csv", "markdown"]), default=None)
@_exit_code
def bench(config_path, custom_path, **flags):
    """Run solver benchmarks and emit a result table.

    Exit code 0 on full success, 2 when any row fails to converge,
    1 on configuration or runtime errors.  A row whose run raised puts
    its message on stderr as ``error: <problem>/<alg>: <message>``.
    """
    file_values = parse_config_file(config_path) if config_path else {}
    opts = {
        key: cast(file_values[key]) if flags[key] is None and key in file_values else flags[key]
        for key, cast in _BENCH_KEYS.items()
    }
    if opts["problem"] is None:
        raise ProblemSpecError("no problem selected; pass --problem or a config file")
    if opts["alg"] is None:
        raise ProblemSpecError("no algorithm selected; pass --alg or a config file")
    sizes = _parse_int_list(opts["n"]) if opts["n"] is not None else [None]
    specs = [ProblemSpec(opts["problem"], n=size, path=custom_path) for size in sizes]
    algorithms = [tok.strip() for tok in opts["alg"].split(",") if tok.strip()]
    config = SolveConfig(**{key: opts[key] for key in _SOLVE_KEYS if opts[key] is not None})
    results = run_suite(specs, algorithms, config)
    for result in results:
        if result.error is not None:
            click.echo(f"error: {result.problem}/{result.algorithm}: {result.error}", err=True)
    _write(emit_table(results, format=opts["format"] or "csv"), opts["out"])
    return 2 if any(not r.converged for r in results) else 0


@cli.command()
@click.option("--n", default="15", help="Interior node count or comma list; n + 1 must be divisible by 4.")
@click.option("--format", type=click.Choice(["csv", "markdown"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
@_exit_code
def obstacle(n, format, out):
    """Solve the obstacle benchmark and report (h, max_error) per grid."""
    problem = benchmark_problem()
    rows = []
    for size in _parse_int_list(n):
        error = max_error(problem, size)  # rejects a bad grid before h divides by size + 1
        h = (problem.b - problem.a) / (size + 1)
        rows.append((str(size), f"{h:.6e}", f"{error:.6e}"))
    _write(render_table(("n", "h", "max_error"), rows, format=format), out)
    return 0


# Class id -> check; parallelogram checks a norm power, every other class a builtin function.
_CERT_CHECKS = {
    "hos-convex": convexity_lab.check_hos_convex,
    "gradient": convexity_lab.check_gradient_char,
    "parallelogram": convexity_lab.check_parallelogram,
    "exp-convex": convexity_lab.check_exp_convex,
    "strong-exp-convex": functools.partial(convexity_lab.check_exp_convex, strong=True),
    "exp-concave": functools.partial(convexity_lab.check_exp_convex, concave=True),
    "hierarchy": convexity_lab.check_hierarchy,
}


@cli.command()
@click.option("--function", "function_id", default=None, help="Builtin function id; not needed for --class parallelogram.")
@click.option("--class", "class_id", type=click.Choice(list(_CERT_CHECKS)), required=True)
@click.option("--p", type=float, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--samples", type=int, default=500)
@click.option("--dim", type=int, default=3, help="Vector dimension for --class parallelogram.")
@click.option("--seed", type=int, default=0)
@_exit_code
def certify(function_id, class_id, p, mu, samples, dim, seed):
    """Run one sampled class certification and print its report row.

    Exit code 0 on a pass verdict, 2 on fail, 1 on error.
    """
    check = _CERT_CHECKS[class_id]
    if class_id == "parallelogram":
        p = 2.0 if p is None else p
        report = check(p, 1.0 if mu is None else mu, samples=samples, dim=dim, seed=seed)
        label = f"norm-power(p={p})"
    else:
        if function_id is None:
            raise ValueError("pass --function <builtin id> for this class")
        registry = convexity_lab.builtin_functions()
        if function_id not in registry:
            raise ValueError(
                f"unknown builtin {function_id!r}; expected one of {tuple(registry)}"
            )
        fut = registry[function_id]
        overrides = {}
        if p is not None:
            overrides["p"] = p
        if mu is not None:
            overrides["mu"] = mu
        if overrides:
            fut = replace(fut, **overrides)
        report = check(fut, samples=samples, seed=seed)
        label = function_id
    header = ("function", "class", "checked", "worst_violation", "verdict")
    row = (label, class_id, str(report.checked_count), f"{report.worst_violation:.6e}", report.verdict)
    click.echo(render_table(header, [row]), nl=False)
    return 0 if report.verdict == "pass" else 2


main = cli

if __name__ == "__main__":
    cli()
