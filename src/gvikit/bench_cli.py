"""Benchmark problem registry, suite runner, and table emission.

Houses the standard test problems (a four-dimensional economic-style
operator on a simplex, two box-constrained affine families, and the
obstacle instance), runs (problem, algorithm) grids against the solver
registry, and renders deterministic CSV or markdown tables.  The `gvi`
command group exposes benchmarking, obstacle error scans, and
convexity certification.
"""

from __future__ import annotations

import functools
import importlib.util
import time
from dataclasses import dataclass, replace
from typing import Optional

import click
import numpy as np

from . import convexity_lab
from .auxiliary import solve_gap_descent, solve_three_step
from .core import GviProblem, SolveConfig
from .errors import GviError, ProblemSpecError
from .obstacle_spline import ObstacleProblem, benchmark_problem, max_error
from .sets import Box, Simplex
from .solvers import (
    solve_dynamical,
    solve_extragradient,
    solve_projection,
    solve_two_step,
)
from .wiener_hopf import (
    solve_double_projection_basic,
    solve_double_projection_optimal,
    solve_whe,
)

_PROBLEM_IDS = ("example2", "example3", "example4", "obstacle", "custom")

ALGORITHMS = {
    "projection": solve_projection,
    "extragradient": solve_extragradient,
    "two-step": solve_two_step,
    "whe": solve_whe,
    "dp-basic": solve_double_projection_basic,
    "dp-optimal": solve_double_projection_optimal,
    "three-step": solve_three_step,
    "gap-descent": solve_gap_descent,
    "dynamical-forward": functools.partial(solve_dynamical, variant="ForwardT"),
    "dynamical-implicit": functools.partial(solve_dynamical, variant="FullImplicit"),
    "dynamical-explicit": functools.partial(solve_dynamical, variant="ExplicitT"),
}

_COLUMNS = ("problem", "n", "algorithm", "iterations", "converged", "residual", "time")
_NON_CONVERGED_MARK = "—"


@dataclass(frozen=True)
class ProblemSpec:
    """Identifier plus size parameters naming one registry problem.

    The start-point rule for every registry problem is the projection
    of the origin onto K, which lands on the uniform vector e for the
    simplex instance and on 0 for the box instances.  default_rho None
    lets each solver pick its own step.
    """

    id: str
    n: Optional[int] = None
    path: Optional[str] = None
    default_rho: Optional[float] = None

    def __post_init__(self):
        if self.id not in _PROBLEM_IDS:
            raise ProblemSpecError(f"unknown problem id {self.id!r}; expected one of {_PROBLEM_IDS}")
        if self.id in ("example3", "example4"):
            if self.n is None or self.n < 1:
                raise ProblemSpecError(f"{self.id} requires n >= 1")
        if self.id == "obstacle":
            if self.n is None or self.n < 4 or (self.n + 1) % 4 != 0:
                raise ProblemSpecError("obstacle requires n >= 4 with n + 1 divisible by 4")
        if self.id == "custom" and not self.path:
            raise ProblemSpecError("custom problems require a module path")


@dataclass(frozen=True)
class BenchResult:
    """One (problem, algorithm) benchmark row.

    iterations is the raw step count (None when the run errored out);
    converged implies residual_norm <= tol.  error records a per-row
    failure message without aborting the suite.
    """

    problem: str
    algorithm: str
    n: int
    iterations: Optional[int]
    converged: bool
    residual_norm: float
    wall_time: float
    error: Optional[str] = None


def _example2():
    def T(x):
        x1, x2, x3, x4 = x
        return np.array(
            [
                -x2 + x3 + x4,
                x1 - (4.5 * x3 + 2.7 * x4) / (x2 + 1.0),
                5.0 - x1 - (0.5 * x3 + 0.3 * x4) / (x3 + 1.0),
                3.0 - x1,
            ]
        )

    return GviProblem(dim=4, T=T, K=Simplex(total=4.0))


def _example3(n):
    M = (
        np.diag(4.0 * np.ones(n))
        + np.diag(-np.ones(n - 1), 1)
        + np.diag(-np.ones(n - 1), -1)
    )
    # Solution of Mx = e lies strictly inside [0,1]^n, so it solves the VI.
    sol = np.linalg.solve(M, np.ones(n))
    return GviProblem(
        dim=n,
        T=lambda x: M @ x - 1.0,
        K=Box(np.zeros(n), np.ones(n)),
        known_solution=sol,
    )


def _example4(n):
    d = np.arange(1, n + 1) / n
    return GviProblem(
        dim=n,
        T=lambda x: d * x - 1.0,
        K=Box(np.zeros(n), np.ones(n)),
        known_solution=np.ones(n),
    )


def _load_custom(path):
    spec = importlib.util.spec_from_file_location("gvi_custom_problem", path)
    if spec is None or spec.loader is None:
        raise ProblemSpecError(f"cannot import custom problem module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "build"):
        raise ProblemSpecError(f"custom module {path!r} defines no build() function")
    return module.build()


def build_problem(spec):
    """Construct the problem a ProblemSpec names.

    Parameters
    ----------
    spec : ProblemSpec

    Returns
    -------
    GviProblem or ObstacleProblem
    """
    if spec.id == "example2":
        return _example2()
    if spec.id == "example3":
        return _example3(spec.n)
    if spec.id == "example4":
        return _example4(spec.n)
    if spec.id == "obstacle":
        return benchmark_problem()
    return _load_custom(spec.path)


def _row_n(spec, problem):
    if spec.n is not None:
        return spec.n
    return getattr(problem, "dim", 0)


def run_suite(specs, algorithms, config=None):
    """Run every (problem, algorithm) pair and collect one row each.

    Individual run failures are recorded on their row and never abort
    the suite.  Rows are ordered by spec order, then algorithm order.

    Parameters
    ----------
    specs : sequence of ProblemSpec
    algorithms : sequence of str
        Ids drawn from the ALGORITHMS registry.
    config : SolveConfig, optional

    Returns
    -------
    list of BenchResult
    """
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ProblemSpecError(
                f"unknown algorithm id {alg!r}; expected one of {tuple(ALGORITHMS)}"
            )
    config = SolveConfig() if config is None else config
    results = []
    for spec in specs:
        problem = None
        build_error = None
        try:
            problem = build_problem(spec)
        except Exception as exc:  # recorded per row below
            build_error = str(exc)
        if problem is not None and isinstance(problem, ObstacleProblem):
            build_error = "obstacle instances run under the obstacle command, not the GVI suite"
        for alg in algorithms:
            if build_error is not None:
                results.append(
                    BenchResult(spec.id, alg, spec.n or 0, None, False, float("nan"), 0.0, build_error)
                )
                continue
            run_config = config if spec.default_rho is None else replace(config, rho=spec.default_rho)
            start = time.perf_counter()
            try:
                report = ALGORITHMS[alg](problem, run_config)
                elapsed = time.perf_counter() - start
                results.append(
                    BenchResult(
                        spec.id,
                        alg,
                        _row_n(spec, problem),
                        report.iterations,
                        report.converged,
                        report.residual_norm,
                        elapsed,
                    )
                )
            except Exception as exc:
                elapsed = time.perf_counter() - start
                results.append(
                    BenchResult(
                        spec.id, alg, _row_n(spec, problem), None, False, float("nan"), elapsed, str(exc)
                    )
                )
    return results


def _cells(result):
    iters = (
        str(result.iterations)
        if result.converged and result.iterations is not None
        else _NON_CONVERGED_MARK
    )
    residual = "nan" if np.isnan(result.residual_norm) else f"{result.residual_norm:.6e}"
    return (
        result.problem,
        str(result.n),
        result.algorithm,
        iters,
        "true" if result.converged else "false",
        residual,
        f"{result.wall_time:.4f}",
    )


def emit_table(results, format="csv"):
    """Render benchmark rows as CSV or markdown text.

    Column order is fixed: problem, n, algorithm, iterations, converged,
    residual, time.  Non-converged rows print an em-dash style marker in
    the iterations column.

    Parameters
    ----------
    results : sequence of BenchResult
    format : str
        "csv" or "markdown".

    Returns
    -------
    str
    """
    if format not in ("csv", "markdown"):
        raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")
    rows = [_cells(r) for r in results]
    if format == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(cells) for cells in rows]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(_COLUMNS) + " |"]
    lines.append("|" + "|".join([" --- "] * len(_COLUMNS)) + "|")
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines) + "\n"


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
        text = emit_table(results, format=fmt)
    except (GviError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
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
            ProblemSpec("obstacle", n=n)
            h = (problem.b - problem.a) / (n + 1)
            rows.append((str(n), f"{h:.6e}", f"{max_error(problem, n, variant=variant):.6e}"))
        header = ("n", "h", "max_error")
        if fmt == "csv":
            text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
        else:
            lines = ["| " + " | ".join(header) + " |", "|" + "|".join([" --- "] * 3) + "|"]
            lines += ["| " + " | ".join(r) + " |" for r in rows]
            text = "\n".join(lines) + "\n"
    except (GviError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    raise SystemExit(0)


_CERT_CLASSES = (
    "hos-convex",
    "gradient",
    "parallelogram",
    "exp-convex",
    "strong-exp-convex",
    "exp-concave",
    "hierarchy",
)


@cli.command()
@click.option("--function", "function_id", default=None, help="Builtin function id; not needed for --class parallelogram.")
@click.option("--class", "class_id", type=click.Choice(_CERT_CLASSES), required=True)
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
        if class_id == "parallelogram":
            report = convexity_lab.check_parallelogram(
                p if p is not None else 2.0,
                mu if mu is not None else 1.0,
                samples=samples,
                dim=dim,
                seed=seed,
            )
            label = f"norm-power(p={p if p is not None else 2.0})"
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
            if class_id == "hos-convex":
                report = convexity_lab.check_hos_convex(fut, samples=samples, seed=seed)
            elif class_id == "gradient":
                report = convexity_lab.check_gradient_char(fut, samples=samples, seed=seed)
            elif class_id == "exp-convex":
                report = convexity_lab.check_exp_convex(fut, samples=samples, seed=seed)
            elif class_id == "strong-exp-convex":
                report = convexity_lab.check_exp_convex(fut, samples=samples, seed=seed, strong=True)
            elif class_id == "exp-concave":
                report = convexity_lab.check_exp_convex(fut, samples=samples, seed=seed, concave=True)
            else:
                report = convexity_lab.check_hierarchy(fut, samples=samples, seed=seed)
            label = function_id
        header = ("function", "class", "checked", "worst_violation", "verdict")
        row = (label, class_id, str(report.checked_count), f"{report.worst_violation:.6e}", report.verdict)
        click.echo(",".join(header))
        click.echo(",".join(row))
    except (GviError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    raise SystemExit(0 if report.verdict == "pass" else 2)


main = cli

if __name__ == "__main__":
    cli()
