"""Benchmark problem registry, suite runner, and table emission.

Houses the standard test problems (a four-dimensional economic-style
operator on a simplex and two box-constrained affine families), runs
(problem, algorithm) grids against the solver registry, and renders
deterministic CSV or markdown tables.  Imports only numpy and the
solver modules; the `gvi` command line lives in :mod:`gvikit.bench_cli`.
"""

from __future__ import annotations

import functools
import importlib.util
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .auxiliary import solve_gap_descent, solve_three_step
from .core import GviProblem
from .errors import ProblemSpecError
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

_PROBLEM_IDS = ("example2", "example3", "example4", "custom")

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
    simplex instance and on 0 for the box instances.
    """

    id: str
    n: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self):
        if self.id not in _PROBLEM_IDS:
            raise ProblemSpecError(f"unknown problem id {self.id!r}; expected one of {_PROBLEM_IDS}")
        if self.id in ("example3", "example4"):
            if self.n is None or self.n < 1:
                raise ProblemSpecError(f"{self.id} requires n >= 1")
        elif self.n is not None:
            raise ProblemSpecError(f"{self.id} has a fixed size and takes no n")
        if self.id == "custom" and not self.path:
            raise ProblemSpecError("custom problems require a module path")


@dataclass(frozen=True)
class BenchResult:
    """One (problem, algorithm) benchmark row.

    n is None when the problem failed to build and the spec gave no n;
    iterations is the raw step count (None when the run errored out);
    converged implies residual_norm <= tol.  error records a per-row
    failure message without aborting the suite.
    """

    problem: str
    algorithm: str
    n: Optional[int]
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
    # T(x) = M x - 1 with M = tridiag(-1, 4, -1), applied as a three-term
    # stencil in O(n).  M x = 1 is the recurrence -x_{i-1} + 4 x_i - x_{i+1}
    # = 1 with x_0 = x_{n+1} = 0, whose solution is
    #   x_i = (1 - (r^i + r^(n+1-i)) / (1 + r^(n+1))) / 2,  r = 2 - sqrt(3),
    # for i = 1..n (the powers of r underflow harmlessly to 0 at large n).
    # It lies strictly inside [0,1]^n, so it solves the VI.
    def T(x):
        x = np.asarray(x, dtype=float)
        y = 4.0 * x
        y[1:] -= x[:-1]
        y[:-1] -= x[1:]
        return y - 1.0

    r = 2.0 - np.sqrt(3.0)
    i = np.arange(1, n + 1)
    sol = 0.5 * (1.0 - (r**i + r ** (n + 1 - i)) / (1.0 + r ** (n + 1)))
    return GviProblem(
        dim=n,
        T=T,
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
    GviProblem
    """
    if spec.id == "example2":
        return _example2()
    if spec.id == "example3":
        return _example3(spec.n)
    if spec.id == "example4":
        return _example4(spec.n)
    return _load_custom(spec.path)


def _row_n(spec, problem):
    if spec.n is not None:
        return spec.n
    return getattr(problem, "dim", None)


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
    results = []
    for spec in specs:
        try:
            problem, build_error = build_problem(spec), None
        except Exception as exc:  # recorded on every row of this spec
            problem, build_error = None, str(exc)
        for alg in algorithms:
            iterations, converged, residual, elapsed, error = None, False, float("nan"), 0.0, build_error
            if build_error is None:
                start = time.perf_counter()
                try:
                    report = ALGORITHMS[alg](problem, config)
                    iterations, converged, residual = report.iterations, report.converged, report.residual_norm
                except Exception as exc:
                    error = str(exc)
                elapsed = time.perf_counter() - start
            results.append(
                BenchResult(spec.id, alg, _row_n(spec, problem), iterations, converged, residual, elapsed, error)
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
        "" if result.n is None else str(result.n),
        result.algorithm,
        iters,
        "true" if result.converged else "false",
        residual,
        f"{result.wall_time:.4f}",
    )


def render_table(columns, rows, format="csv"):
    """Render rows of string cells under ``columns`` as CSV or markdown text."""
    if format not in ("csv", "markdown"):
        raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")
    if format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(cells) for cells in rows]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join([" --- "] * len(columns)) + "|")
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines) + "\n"


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
    return render_table(_COLUMNS, [_cells(r) for r in results], format)
