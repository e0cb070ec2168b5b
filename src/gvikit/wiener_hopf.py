"""Predictor-corrector solvers built on the projection residual.

Contains the blended predictor-corrector iteration and the two
double-projection methods with Armijo line search, including the
hyperplane-corrected variant that projects onto the intersection of K
with the separating hyperplane found by the search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import effective_T, iterate_residual, prepare_solve, recover_iterate
from .errors import InfeasibleSetError, LineSearchError
from .sets import check_intersection_base, project, project_intersection

_MAX_ARMIJO_POWER = 64


@dataclass(frozen=True)
class ArmijoResult:
    """Outcome of the backtracking line search along the residual."""

    m: int
    eta: float
    trial_point: np.ndarray
    trial_T: np.ndarray


def armijo_search(problem, u, R_u, gamma, sigma, T_u=None, start=0):
    """Find the smallest m >= start with ⟨T(u) - T(u - γ^m R), R⟩ ≤ σ‖R‖².

    Parameters
    ----------
    problem : GviProblem
    u : ndarray
        Current iterate.
    R_u : ndarray
        Residual at u; must be nonzero.
    gamma, sigma : float
        Backtracking ratio and sufficient-decrease scalar, both in (0, 1).
    T_u : ndarray, optional
        T(u) when the caller already has it; evaluated otherwise.
    start : int, optional
        First power tried, in [0, 64]; T is evaluated at the trial points
        of m = start, start + 1, ..., so m - start + 1 times.

    Returns
    -------
    ArmijoResult
        With eta = gamma**m, formed as m products from 1.0, trial_point
        = u - eta*R_u and trial_T the operator T at trial_point.

    Raises
    ------
    LineSearchError
        If no power from start up to 64 satisfies the inequality
        (signals wrong scaling).
    """
    if not 0 < gamma < 1 or not 0 < sigma < 1:
        raise ValueError("gamma and sigma must lie in (0, 1)")
    rsq = float(R_u @ R_u)
    if rsq == 0.0:
        raise ValueError("R_u must be nonzero")
    if not 0 <= start <= _MAX_ARMIJO_POWER:
        raise ValueError("start must lie in [0, 64]")
    Tu = effective_T(problem, u) if T_u is None else T_u
    eta = 1.0
    for _ in range(start):
        eta *= gamma
    for m in range(start, _MAX_ARMIJO_POWER + 1):
        trial = u - eta * R_u
        T_trial = effective_T(problem, trial)
        if float((Tu - T_trial) @ R_u) <= sigma * rsq:
            return ArmijoResult(m=m, eta=eta, trial_point=trial, trial_T=T_trial)
        eta *= gamma
    raise LineSearchError(f"no power of gamma from {start} up to 64 passes the test; check operator scaling")


def _search_step(problem, u, s, config, start):
    # Line search from the power start, direction, and step length shared
    # by both double-projection correctors, from the rho = 1 stage s at u.
    R = s.r
    search = armijo_search(problem, u, R, config.gamma, config.sigma, T_u=s.t, start=start)
    eta = search.eta
    y = recover_iterate(problem, u, s.gu - eta * R, s.gu)
    # Only for the identity g is y the Armijo trial point itself.
    Ty = search.trial_T if problem.g is None else effective_T(problem, y)
    d = -(eta * R - eta * s.t + Ty)
    c = eta * float(R @ (R - s.t + Ty))
    dsq = float(d @ d)
    alpha = c / dsq if dsq else 0.0
    return d, dsq, alpha, c, search


def _solve_double_projection(problem, config, u0, optimal):
    if optimal:
        check_intersection_base(problem.K)
    # Both methods take rho = 1 whatever config.rho says, so rho is not learned.
    config, _, u = prepare_solve(problem, config, u0)
    config = replace(config, rho=1.0)
    last_m = 0

    def update(u, s, k):
        nonlocal last_m
        d, dsq, alpha, c, search = _search_step(problem, u, s, config, max(0, last_m - 1))
        last_m = search.m
        info = {"m": search.m, "eta": search.eta, "c": c, "alpha": alpha}
        moved = s.gu + alpha * d
        if optimal and dsq > 0.0:
            try:
                g_next = project_intersection(problem.K, d, c, moved, anchor=s.gu)
            except InfeasibleSetError:
                info["fallback"] = "basic"
                g_next = project(problem.K, moved)
        else:
            g_next = project(problem.K, moved)
        step_g = g_next - s.gu
        info["step_g_d"] = float(step_g @ d)
        info["step_gsq"] = float(step_g @ step_g)
        return recover_iterate(problem, u, g_next, s.gu), info, None

    details = {"algorithm": "dp-optimal" if optimal else "dp-basic"}
    return iterate_residual(problem, config, u, update, details)


def solve_double_projection_basic(problem, config=None, u0=None):
    """Double-projection method with Armijo search and projected corrector.

    Per iteration (rho = 1 fixed inside the predictor):
    z = P_K[g(u) - T(u)], R = g(u) - g(z), Armijo gives eta,
    g(y) = (1-eta)*g(u) + eta*g(z), d = -(eta*R - eta*T(u) + T(y)),
    alpha = eta*⟨R, R - T(u) + T(y)⟩ / ‖d‖², g(u+) = P_K[g(u) + alpha*d].
    Each search starts at the power max(0, m' - 1), one above the power
    m' accepted last, and costs m - start + 1 T evaluations; the iterates
    are those of searches from 0 whenever each of those would accept a
    power of at least m' - 1, as on the monotone registry problems.
    Stops on ‖R(u)‖ ≤ tol; hitting the iteration cap yields a
    non-converged report rather than an error.  Each trace record after
    the start keeps scalars only: the accepted power ``m``, ``eta``, ``c``,
    ``alpha``, and, for the step s = g(u+) - g(u), ``step_g_d`` = ⟨s, d⟩
    and ``step_gsq`` = ‖s‖², so the trace does not grow with n.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    return _solve_double_projection(problem, config, u0, optimal=False)


def solve_double_projection_optimal(problem, config=None, u0=None):
    """Double-projection method correcting onto K intersected with a hyperplane.

    Identical predictor, warm-started line search, and direction as the
    basic method; the corrector projects g(u) + alpha*d onto K ∩ H where H
    is the hyperplane {w : ⟨w - g(u), d⟩ = eta*⟨R, R - T(u) + T(y)⟩}.  When
    the intersection is infeasible the basic corrector is used for that
    iteration and the fallback is recorded in the trace.  The trace
    records the basic method's fields (``m``, ``eta``, ``c``, ``alpha``,
    ``step_g_d`` and ``step_gsq``), plus ``fallback`` = "basic" on such
    an iteration; on every other, ``step_g_d`` equals ``c`` up to the
    cut projection's rounding.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
    u0 : array_like, optional

    Returns
    -------
    SolveReport

    Raises
    ------
    UnsupportedSetError
        Before any evaluation, when K is not a base set that
        ``project_intersection`` supports.
    """
    return _solve_double_projection(problem, config, u0, optimal=True)


def solve_whe(problem, config=None, u0=None):
    """Blended predictor-corrector iteration on the projection equation.

    Predictor: g(y) = P_K[g(u) - rho*T(u)].  Corrector g-value:
    w = P_K[g(y) - rho*T(y) + g(y) - (g(u) - rho*T(u))].  The new
    g-image is the blend (1 - a_n)*g(u) + a_n*w with a_n from the
    alpha_schedule (default 1, the pure corrector).  Stops on
    ‖R(u)‖ ≤ tol.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
        alpha_schedule values must lie in (0, 1].
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    config, _, u = prepare_solve(problem, config, u0)

    def update(u, s, k):
        a_n = config.alpha_at(k, default=1.0)
        if not 0.0 < a_n <= 1.0:
            raise ValueError("alpha_schedule values must lie in (0, 1]")
        shifted = s.gu - s.rho * s.t
        y = recover_iterate(problem, u, s.p, s.gu)
        w = project(problem.K, s.p - s.rho * effective_T(problem, y) + s.p - shifted)
        return recover_iterate(problem, u, (1.0 - a_n) * s.gu + a_n * w, s.gu), {"alpha_n": a_n}, None

    return iterate_residual(problem, config, u, update, {"algorithm": "whe"})
