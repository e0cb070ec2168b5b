"""Multi-step projection schemes and gap (merit) functions.

The gap function turns the variational inequality into a minimization
problem: it is nonnegative on feasible points and vanishes exactly at
solutions, which supports both a descent solver and the parametric gap
machinery for operators with an extra control argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    effective_T,
    g_value,
    iterate_residual,
    prepare_solve,
    projection_stage,
    recover_iterate,
    vector_norm,
)
from .errors import CapabilityError, StallError
from .sets import project

_MAX_BACKTRACK = 64


@dataclass(frozen=True)
class GapEvaluation:
    """Gap-function value with its projection data.

    minimizer_point is the point whose g-image is the projection of
    g(u) - rho*T(u) onto K; distance_part is the distance from
    g(u) - rho*T(u) to K.
    """

    value: float
    minimizer_point: np.ndarray
    distance_part: float


@dataclass(frozen=True)
class ControlledOperator:
    """Operator T(u, z) with a state argument u and a control argument z.

    jac_state, when supplied, maps (u, z) to the n-by-n Jacobian of T
    with respect to u and enables the analytic gap gradient.
    """

    T2: Callable
    jac_state: Optional[Callable] = None


def solve_three_step(problem, config=None, u0=None):
    """Three-stage projection scheme with per-stage step sizes.

    Stages: g(y) = P_K[g(u) - mu*T(u)], g(w) = P_K[g(y) - beta*T(y)],
    g(u+) = P_K[g(w) - rho*T(w)], each recovered through the
    u - g(u) + . device.  mu_step = 0 collapses the first stage,
    mu_step = beta_step = 0 reproduces the plain projection iteration.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
        mu_step and beta_step follow the stage's rho when None; the
        report details give the values of the last step.
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    config, _, u = prepare_solve(problem, config, u0)

    def update(u, s, k):
        mu = s.rho if config.mu_step is None else config.mu_step
        beta = s.rho if config.beta_step is None else config.beta_step
        y = recover_iterate(problem, u, project(problem.K, s.gu - mu * s.t), s.gu)
        gy = g_value(problem, y)
        w = recover_iterate(problem, y, project(problem.K, gy - beta * effective_T(problem, y)), gy)
        gw = g_value(problem, w)
        return recover_iterate(problem, w, project(problem.K, gw - s.rho * effective_T(problem, w)), gw), None, None

    report = iterate_residual(problem, config, u, update, {"algorithm": "three-step"})
    last = report.details["rho"]
    report.details["mu_step"] = last if config.mu_step is None else config.mu_step
    report.details["beta_step"] = last if config.beta_step is None else config.beta_step
    return report


def _gap_value(gu, t, p, rho):
    # (1/2)(||rho t||^2 - ||p - (gu - rho t)||^2) expanded, so that the two
    # squares do not cancel when rho^2 ||t||^2 is large beside the gap.
    r = gu - p
    return rho * float(t @ r) - 0.5 * float(r @ r)


def gap_N(problem, u, rho):
    """Gap (merit) function of the projection residual.

    N[u] = (1/2) * { ||rho*T(u)||^2 - ||g(w(u)) - (g(u) - rho*T(u))||^2 }
    with g(w(u)) = P_K[g(u) - rho*T(u)].  Nonnegative on feasible points
    and zero exactly at solutions.

    Parameters
    ----------
    problem : GviProblem
    u : array_like
    rho : float
        Positive step scalar.

    Returns
    -------
    GapEvaluation
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    s = projection_stage(problem, u, rho)
    dist = float(np.linalg.norm(s.p - (s.gu - rho * s.t)))
    return GapEvaluation(_gap_value(s.gu, s.t, s.p, rho), recover_iterate(problem, u, s.p, s.gu), dist)


def solve_gap_descent(problem, config=None, u0=None):
    """Descent on the gap function along the projection direction.

    Requires g to be the identity.  The direction is
    d = P_K[u - rho*T(u)] - u; backtracking picks the largest
    t = gamma**l with N[u + t*d] <= N[u] - alpha*t*||d||^2, and the
    iteration stops when ||d|| = ||R(u, rho)|| <= tol at the point it
    returns, as :func:`~gvikit.core.iterate_residual` stops at a kept rho.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
        alpha is the sufficient-decrease constant, gamma the
        backtracking ratio; rho None runs at rho_ref from
        :func:`~gvikit.core.first_difference_rho` at u_0.
    u0 : array_like, optional

    Returns
    -------
    SolveReport

    Raises
    ------
    StallError
        When no t within 64 backtracking steps achieves the decrease.
    """
    if problem.g is not None:
        raise CapabilityError("gap descent needs g = identity")
    config, _, u = prepare_solve(problem, config, u0)

    def update(u, s, k):
        gap = _gap_value(s.gu, s.t, s.p, s.rho)
        d = s.p - u
        dnorm_sq = vector_norm(d) ** 2
        t = 1.0
        for _ in range(_MAX_BACKTRACK + 1):
            trial = u + t * d
            s_trial = projection_stage(problem, trial, s.rho)
            gap_trial = _gap_value(s_trial.gu, s_trial.t, s_trial.p, s.rho)
            if gap_trial <= gap - config.alpha * t * dnorm_sq:
                return trial, {"gap": gap_trial, "t": t}, s_trial
            t *= config.gamma
        raise StallError("gap descent found no decreasing step within 64 backtracks")

    return iterate_residual(problem, config, u, update, {"algorithm": "gap-descent"}, learn=False)


def _controlled_T(T2):
    return T2.T2 if isinstance(T2, ControlledOperator) else T2


def regularized_gap(T2, g, K, u, z, rho):
    """Regularized gap of a controlled operator.

    h_rho(u, z) = (1/2) * { rho^2*||T(u,z)||^2 - d_K^2(g(u) - rho*T(u,z)) }
    where d_K is the distance to K.  Nonnegative whenever g(u) is in K,
    and zero exactly at points solving the inequality for that z.

    Parameters
    ----------
    T2 : ControlledOperator or callable
        Operator (u, z) -> n-vector.
    g : callable or None
        None means the identity.
    K : ConvexSet
    u, z : array_like
    rho : float

    Returns
    -------
    GapEvaluation
        value, the projection point u_K = P_K[g(u) - rho*T(u,z)] as
        minimizer_point, and d_K(g(u) - rho*T(u,z)) as distance_part.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    Tval = np.atleast_1d(np.asarray(_controlled_T(T2)(u, z), dtype=float))
    gu = u if g is None else np.atleast_1d(np.asarray(g(u), dtype=float))
    shifted = gu - rho * Tval
    u_K = project(K, shifted)
    return GapEvaluation(_gap_value(gu, Tval, u_K, rho), u_K, float(np.linalg.norm(u_K - shifted)))


def regularized_gap_gradient(T2, g, K, u, z, rho, g_jacobian=None):
    """Gradient in u of the regularized gap.

    h'_rho = rho^2*[T']^T T - ([g']^T - rho*[T']^T)(I - P_K)[g(u) - rho*T(u,z)]
    with the Jacobians evaluated at (u, z).

    Parameters
    ----------
    T2 : ControlledOperator
        Must carry jac_state.
    g : callable or None
        None means the identity.
    K : ConvexSet
    u, z : array_like
    rho : float
    g_jacobian : callable, optional
        u -> n-by-n Jacobian of g; identity assumed when g is None.

    Returns
    -------
    ndarray

    Raises
    ------
    CapabilityError
        When jac_state is missing, or g is non-identity without
        g_jacobian.
    """
    if not isinstance(T2, ControlledOperator) or T2.jac_state is None:
        raise CapabilityError("gap gradient needs a ControlledOperator with jac_state")
    if g is not None and g_jacobian is None:
        raise CapabilityError("gap gradient needs g_jacobian for non-identity g")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    Tval = np.atleast_1d(np.asarray(T2.T2(u, z), dtype=float))
    Tjac = np.atleast_2d(np.asarray(T2.jac_state(u, z), dtype=float))
    gu = u if g is None else np.atleast_1d(np.asarray(g(u), dtype=float))
    gjac = np.eye(u.size) if g_jacobian is None else np.atleast_2d(np.asarray(g_jacobian(u), dtype=float))
    shifted = gu - rho * Tval
    unprojected = shifted - project(K, shifted)
    return rho**2 * Tjac.T @ Tval - (gjac.T - rho * Tjac.T) @ unprojected
