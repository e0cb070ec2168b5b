"""The `gvi` command line: benchmarking, obstacle error scans, and convexity certification.

Problems, the solver registry, the suite runner and table rendering
live in :mod:`gvikit.registry`; this module only parses options and
config files, calls them, and maps outcomes to exit codes.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import click

from . import convexity_lab
from .core import SolveConfig
from .errors import GviError, ProblemSpecError
from .obstacle_spline import benchmark_problem, max_error
from .registry import ProblemSpec, emit_table, render_table, run_suite


def parse_config_file(path):
    """Parse a flat key-value experiment manifest.

    Lines are `key = value` (or `key value`); blank lines and lines
    starting with # are ignored.  Recognized keys: problem, n, alg, rho,
    tol, max_iters, sigma, gamma, out, format.
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


def _merged_option(flag_value, file_values, key, cast=str):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return cast(file_values[key])
    return None


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _solve_config_from(options):
    kwargs = {}
    for key in ("rho", "tol", "sigma", "gamma"):
        if options.get(key) is not None:
            kwargs[key] = float(options[key])
    if options.get("max_iters") is not None:
        kwargs["max_iters"] = int(options["max_iters"])
    return SolveConfig(**kwargs)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def cli():
    """Benchmarks, obstacle error scans, and convexity certification."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="Flat key-value manifest; flags override file values.")
@click.option("--problem", default=None, help="Problem id (example2, example3, example4, custom).")
@click.option("--n", "n_text", default=None, help="Problem size or comma list, e.g. 10,20,50,100.")
@click.option("--alg", "alg_text", default=None, help="Algorithm id or comma list from the registry.")
@click.option("--path", "custom_path", type=click.Path(exists=True), default=None, help="Module path for --problem custom.")
@click.option("--rho", type=float, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--max-iters", "max_iters", type=int, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default=None)
def bench(config_path, problem, n_text, alg_text, custom_path, rho, tol, max_iters, sigma, gamma, out_path, fmt):
    """Run solver benchmarks and emit a result table.

    Exit code 0 on full success, 2 when any row fails to converge,
    1 on configuration or runtime errors.
    """
    try:
        file_values = parse_config_file(config_path) if config_path else {}
        problem = _merged_option(problem, file_values, "problem")
        n_text = _merged_option(n_text, file_values, "n")
        alg_text = _merged_option(alg_text, file_values, "alg")
        out_path = _merged_option(out_path, file_values, "out")
        fmt = _merged_option(fmt, file_values, "format") or "csv"
        options = {
            "rho": _merged_option(rho, file_values, "rho", float),
            "tol": _merged_option(tol, file_values, "tol", float),
            "max_iters": _merged_option(max_iters, file_values, "max_iters", int),
            "sigma": _merged_option(sigma, file_values, "sigma", float),
            "gamma": _merged_option(gamma, file_values, "gamma", float),
        }
        if problem is None:
            raise ProblemSpecError("no problem selected; pass --problem or a config file")
        if alg_text is None:
            raise ProblemSpecError("no algorithm selected; pass --alg or a config file")
        sizes = _parse_int_list(n_text) if n_text is not None else [None]
        specs = [ProblemSpec(problem, n=size, path=custom_path) for size in sizes]
        algorithms = [tok.strip() for tok in alg_text.split(",") if tok.strip()]
        results = run_suite(specs, algorithms, _solve_config_from(options))
        _write(emit_table(results, format=fmt), out_path)
    except (GviError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    failures = [r for r in results if not r.converged]
    raise SystemExit(2 if failures else 0)


@cli.command()
@click.option("--n", "n_text", default="15", help="Interior node count or comma list; n + 1 must be divisible by 4.")
@click.option("--variant", type=click.Choice(["corrected", "verbatim"]), default="corrected")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv")
@click.option("--out", "out_path", type=click.Path(), default=None)
def obstacle(n_text, variant, fmt, out_path):
    """Solve the obstacle benchmark and report (h, max_error) per grid."""
    try:
        problem = benchmark_problem()
        rows = []
        for n in _parse_int_list(n_text):
            error = max_error(problem, n, variant=variant)
            h = (problem.b - problem.a) / (n + 1)
            rows.append((str(n), f"{h:.6e}", f"{error:.6e}"))
        _write(render_table(("n", "h", "max_error"), rows, format=fmt), out_path)
    except (GviError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    raise SystemExit(0)


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
def certify(function_id, class_id, p, mu, samples, dim, seed):
    """Run one sampled class certification and print its report row.

    Exit code 0 on a pass verdict, 2 on fail, 1 on error.
    """
    try:
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
    except (GviError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    raise SystemExit(0 if report.verdict == "pass" else 2)


main = cli

if __name__ == "__main__":
    cli()
