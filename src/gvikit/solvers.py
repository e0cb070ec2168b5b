"""Projection fixed-point solvers and dynamical-system discretizations.

All methods iterate on the fixed-point characterization
g(u) = P_K[g(u) - rho*T(u)] of the variational inequality, differing in
where the operator is evaluated and how implicitly the step is taken.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import (
    device_iterate,
    effective_T,
    eval_operator,
    g_value,
    inner_fixed_point,
    iterate_residual,
    known_solution_lyapunov,
    prepare_solve,
    recover_iterate,
)
from .errors import CapabilityError
from .sets import project

FORWARD_T = "ForwardT"
FULL_IMPLICIT = "FullImplicit"
EXPLICIT_T = "ExplicitT"
_VARIANTS = (FORWARD_T, FULL_IMPLICIT, EXPLICIT_T)


def solve_projection(problem, config=None, u0=None):
    """Fixed-point projection iteration.

    Updates u <- u - g(u) + P_K[g(u) - rho*T(u)] (the projected point
    itself for the identity g; see :func:`~gvikit.core.device_iterate`)
    until the residual norm drops below tol or the iteration cap is reached.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
    u0 : array_like, optional
        Start point; defaults to the projection of the origin onto K.

    Returns
    -------
    SolveReport
    """
    config, _, u = prepare_solve(problem, config, u0)

    def update(u, s, k):
        return device_iterate(problem, u, s.gu, s.p), None, None

    return iterate_residual(problem, config, u, update, {"algorithm": "projection"})


def solve_extragradient(problem, config=None, u0=None):
    """Extragradient iteration: predictor projection, corrector at the predictor.

    Requires g to be the identity or g_inverse to be supplied, since the
    corrector evaluates the operator at the g-preimage of the predictor.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    if problem.g is not None and problem.g_inverse is None:
        raise CapabilityError("extragradient needs g_inverse for non-identity g")
    config, _, u = prepare_solve(problem, config, u0)

    def update(u, s, k):
        y = eval_operator(problem, "g_inverse", s.p)
        w = project(problem.K, s.gu - s.rho * effective_T(problem, y))
        return device_iterate(problem, u, s.gu, w), None, None

    return iterate_residual(problem, config, u, update, {"algorithm": "extragradient"})


def solve_two_step(problem, config=None, u0=None):
    """Unified two-step predictor-corrector scheme.

    Predictor: g(y) = P_K[g(u) - rho*T(u)] (iterate recovered via the
    u - g(u) + . device).  Corrector:
    w = P_K[(1-lam)*g(u) + lam*g(y) - rho*T((1-xi)*u + xi*y)],
    u+ = u - g(u) + w.  Averages act on g-values and evaluation points,
    which matches the classical midpoint schemes exactly for linear g.
    (lam, xi) = (0, 0) recovers the plain projection method and
    (1/2, 1/2) the midpoint scheme.

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
        The weights are its lam and xi fields.
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    config, _, u = prepare_solve(problem, config, u0)
    lam, xi = config.lam, config.xi

    def update(u, s, k):
        y = recover_iterate(problem, u, s.p, s.gu)
        gy = g_value(problem, y)
        mid = (1.0 - xi) * u + xi * y
        w = project(problem.K, (1.0 - lam) * s.gu + lam * gy - s.rho * effective_T(problem, mid))
        return device_iterate(problem, u, s.gu, w), None, None

    details = {"algorithm": "two-step", "lam": lam, "xi": xi}
    return iterate_residual(problem, config, u, update, details)


def _step_gsq(prev, nxt):
    step_g = nxt.gu - prev.gu
    return {"step_gsq": float(step_g @ step_g)}


def solve_dynamical(problem, config=None, u0=None, variant=FORWARD_T):
    """Discretized projected dynamical system with an implicit operator.

    Each outer step solves its update relation in g-image space:

    - ForwardT: w solves w = (h*P_K[g(u_n) - rho*T(u(w))] + g(u_n))/(1+h),
      the damped map of the forward-difference discretization, by inner
      fixed-point iteration (u(w) recovered via g_inverse or the
      u - g(u) + . device).
    - FullImplicit: w solves w = (h*P_K[w - rho*T(u(w))] + g(u_n))/(1+h);
      the inner map contracts with factor h/(1+h) in its first argument.
    - ExplicitT: explicit update w = P_K[g(u_n) - (rho*h/(1+h))*T(u_n)],
      the variational form of the explicit discretization (the raw
      printed fixed-point relation is not stationary at solutions, so the
      equivalent inequality form is taken as normative).  That is the
      projection step at rho' = rho*h/(1+h): the stages run at rho', and
      w is the stage's own projected point, one projection per step.  The
      stop certifies tol at rho', which ``details["rho"]`` and
      ``details["rho_ref"]`` report.  Under rho=None the learned stage
      rho is the step itself, so h has no effect and the iterates are
      those of the projection run (for a g without g_inverse too).

    Every variant recovers u_{n+1} from w through g_inverse when supplied,
    else through the u - g(u) + . device with the stage's g(u_n).

    Parameters
    ----------
    problem : GviProblem
    config : SolveConfig, optional
        The time step is its h field.
    u0 : array_like, optional
    variant : {"ForwardT", "FullImplicit", "ExplicitT"}

    Returns
    -------
    SolveReport

    Raises
    ------
    InnerLoopError
        When an inner fixed-point loop exceeds inner_max_iters.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    config, _, u = prepare_solve(problem, config, u0)
    h = config.h
    if variant == EXPLICIT_T and config.rho is not None:
        config = replace(config, rho=config.rho * h / (1.0 + h))

    def update(u, s, k):
        gu = s.gu
        if variant == EXPLICIT_T:
            return recover_iterate(problem, u, s.p, gu), _step_gsq, None
        last = None  # (w, T(u(w))) of the last trial

        def damped(w):
            nonlocal last
            arg = w if variant == FULL_IMPLICIT else gu
            last = (w, effective_T(problem, recover_iterate(problem, u, w, gu)))
            return (h * project(problem.K, arg - s.rho * last[1]) + gu) / (1.0 + h)

        # The stage's projection gives the first inner value: at w = g(u) both
        # variants project g(u) - rho*T(u), exactly so for the identity g.
        w, _ = inner_fixed_point(damped, gu, config, variant, k, w_next=(h * s.p + gu) / (1.0 + h))
        # A trial can land on the fixed point itself; then T at the returned
        # point is already known.
        t_next = last[1] if last is not None and np.array_equal(last[0], w) else None
        return recover_iterate(problem, u, w, gu), _step_gsq, t_next

    details = {"algorithm": "dynamical", "variant": variant, "h": h}
    return iterate_residual(problem, config, u, update, details, lyapunov=known_solution_lyapunov(problem))
