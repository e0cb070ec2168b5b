"""Solvers built on user-supplied auxiliary subproblem oracles.

Equilibrium and variational-like problems have no computable projection
step for general bifunctions, so the per-iteration subproblem is a
first-class capability: the caller supplies an oracle and the solvers
drive it.  The linear/projection reduction ships as the only built-in.
The oracle solvers take rho = 1 when config.rho is None; the
higher-order solver takes rho_ref from one first difference at the start
point, keeps it for the whole run and stops on ||R(u, rho)|| at the point
it returns, as every solver that evaluates T does.
Each higher-order two-step half-step is a projection step P_K[u - tau*rho*T(u)] at
the tau that solves its p-th power subproblem; the implicit mode is a resolvent step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    check_divergence,
    effective_T,
    g_value,
    inner_fixed_point,
    iterate,
    iterate_residual,
    known_solution_lyapunov,
    prepare_solve,
    recover_iterate,
    vector_norm,
)
from .errors import CapabilityError, OracleContractError, UnsupportedSetError
from .sets import Box, NonnegOrthant, WholeSpace, distance, project

_FEASIBILITY_TOL = 1e-10
_KERNEL_SAMPLE_TOL = 1e-8


def _checked_oracle_value(K, value, label):
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(value)) or distance(K, value) > _FEASIBILITY_TOL:
        raise OracleContractError(f"{label} oracle returned an infeasible point")
    return value


@dataclass(frozen=True)
class EquilibriumProblem:
    """Equilibrium problem: find u with g(u) in K and F(u, g(v)) >= 0.

    aux_oracle(anchor, center, rho) must return the feasible vector
    g(u+) solving rho*F(anchor, y) + <g(u+) - center, y - g(u+)> >= 0
    for all feasible y; its output is feasibility-checked on every call.
    """

    dim: int
    F: Callable
    K: object
    aux_oracle: Callable
    g: Optional[Callable] = None
    g_inverse: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")


@dataclass(frozen=True)
class VarLikeProblem:
    """Variational-like problem: <T(u), eta(g(v), g(u))> >= 0 on K.

    eta is the direction kernel, E_grad the gradient of the strongly
    preinvex auxiliary kernel, and aux_oracle(anchor, center, rho)
    returns g(u+) solving
    <rho*T(anchor) + E_grad(g(u+)) - E_grad(center), eta(y, g(u+))> >= 0
    for all feasible y.  eta(y, y) = 0 is required (checked on samples);
    skew additivity is sampled and warned about, not enforced.
    """

    dim: int
    T: Callable
    K: object
    eta: Callable
    E_grad: Callable
    aux_oracle: Callable
    g: Optional[Callable] = None
    g_inverse: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        rng = np.random.default_rng(0)
        samples = [rng.standard_normal(self.dim) for _ in range(5)]
        for y in samples:
            if float(np.linalg.norm(self.eta(y, y))) > _KERNEL_SAMPLE_TOL:
                raise ValueError("eta(y, y) must vanish")
        for y1, y2 in zip(samples[:-1], samples[1:]):
            skew = np.asarray(self.eta(y1, y2)) + np.asarray(self.eta(y2, y1))
            if float(np.linalg.norm(skew)) > _KERNEL_SAMPLE_TOL:
                warnings.warn("eta is not antisymmetric on sampled pairs", stacklevel=2)
                break


@dataclass(frozen=True)
class HigherOrderProblem:
    """Problem with a p-th power strengthening term of modulus mu.

    nu is the regularization weight of the iteration subproblem and
    defaults to mu; the underlying operator data lives in base.
    """

    base: GviProblem
    p: float
    mu: float
    nu: Optional[float] = None

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.nu is None:
            object.__setattr__(self, "nu", self.mu)
        elif self.nu < 0:
            raise ValueError("nu must be nonnegative")


def projection_aux_oracle(T, K):
    """Built-in oracle for the linear bifunction F(u, y) = <T(u), y - g(u)>.

    Returns the procedure (anchor, center, rho) -> P_K[center - rho*T(anchor)],
    which solves the auxiliary inequality exactly in that case.
    """

    def oracle(anchor, center, rho):
        return project(K, np.asarray(center, dtype=float) - rho * np.asarray(T(anchor), dtype=float))

    return oracle


def diagonal_kernel_oracle(T, K, weights):
    """Built-in oracle for eta(y1, y2) = y1 - y2 with E(y) = (1/2) y^T D y.

    D = diag(weights) must be positive; the auxiliary inequality then
    reads <rho*T(anchor) + D g(u+) - D center, y - g(u+)> >= 0, whose
    solution is the D-norm projection of center - rho*D^{-1}T(anchor).
    For coordinate-separable sets that projection is the plain clamp,
    so only those sets are supported.
    """
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if not isinstance(K, (Box, NonnegOrthant, WholeSpace)):
        raise UnsupportedSetError("diagonal kernel oracle needs a coordinate-separable set")

    def oracle(anchor, center, rho):
        shift = rho * np.asarray(T(anchor), dtype=float) / weights
        return project(K, np.asarray(center, dtype=float) - shift)

    return oracle


def solve_eq_predictor_corrector(problem, config=None, u0=None):
    """Predictor-corrector iteration through the auxiliary oracle.

    Predictor: g(w) = oracle(u_n, g(u_n), beta); corrector:
    g(u+) = oracle(w, g(w), rho), recovered through the
    anchor - g(anchor) + . device.  Stops when the predictor displacement
    ||g(u) - oracle(u, g(u), beta)|| at the point the run returns drops to
    tol: for the linear bifunction and :func:`projection_aux_oracle` that
    is ||R(u, beta)||, so the certificate holds at beta = beta_step.  Each
    step predicts at u+ and carries that predictor into the next step, so
    a run costs 2 oracle calls per step plus 1 at the start.

    Parameters
    ----------
    problem : EquilibriumProblem
    config : SolveConfig, optional
        beta_step defaults to the resolved rho when None.
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    config, rho, u = prepare_solve(problem, config, u0, default=1.0)
    beta = rho if config.beta_step is None else config.beta_step
    if not beta > 0:
        raise ValueError("beta_step must be positive for the predictor")

    def predict(u):
        gu = g_value(problem, u)
        return gu, _checked_oracle_value(problem.K, problem.aux_oracle(u, gu, beta), "equilibrium")

    gu, gw = predict(u)

    def step(u, k):
        nonlocal gu, gw
        w = recover_iterate(problem, u, gw, gu)
        g_next = _checked_oracle_value(problem.K, problem.aux_oracle(w, gw, rho), "equilibrium")
        u_next = recover_iterate(problem, w, g_next)
        check_divergence(u_next)
        gu, gw = predict(u_next)
        return u_next, vector_norm(gu - gw), None

    details = {"algorithm": "eq-predictor-corrector", "rho": rho, "beta_step": beta}
    return iterate(u, vector_norm(gu - gw), step, config, details)


def solve_eq_inertial(problem, config=None, u0=None):
    """Inertial proximal point iteration through the auxiliary oracle.

    The center is extrapolated, g(u_n) + alpha_n*(g(u_n) - g(u_{n-1}))
    with alpha_n in [0, 1) from config.alpha_schedule (default 0), and
    the implicit relation g(u+) = oracle(u+, center, rho) is solved by
    inner fixed-point iteration anchored at u_n.

    Parameters
    ----------
    problem : EquilibriumProblem
    config : SolveConfig, optional
    u0 : array_like, optional

    Returns
    -------
    SolveReport

    Raises
    ------
    InnerLoopError
        When the inner iteration fails to go Cauchy within
        inner_max_iters.
    """
    config, rho, u = prepare_solve(problem, config, u0, default=1.0)
    gu_prev = None  # g(u_{n-1}), carried from the previous step

    def step(u, k):
        nonlocal gu_prev
        alpha_n = config.alpha_at(k, default=0.0)
        if not 0.0 <= alpha_n < 1.0:
            raise ValueError("inertial weight must lie in [0, 1)")
        gu = g_value(problem, u)
        if gu_prev is None:  # the first step extrapolates by exactly 0
            gu_prev = gu
        center = gu + alpha_n * (gu - gu_prev)

        # Composed with P_K, which keeps its fixed points: the oracle sees only
        # anchors with g-values in K, whatever the accelerated trial w.
        def proximal(w):
            anchor = recover_iterate(problem, u, project(problem.K, w), gu)
            return _checked_oracle_value(problem.K, problem.aux_oracle(anchor, center, rho), "equilibrium")

        w, inner = inner_fixed_point(proximal, gu.copy(), config, "eq-inertial", k)
        gu_prev = gu
        u_next = recover_iterate(problem, u, w, gu)
        check_divergence(u_next)
        return u_next, vector_norm(w - gu), {"alpha_n": alpha_n, "inner_iters": inner}

    return iterate(u, np.inf, step, config, {"algorithm": "eq-inertial", "rho": rho})


def solve_varlike(problem, config=None, u0=None):
    """Single-stage iteration for variational-like problems.

    Each step asks the oracle for g(u+) from anchor u_n and center
    g(u_n); the iteration stops when ||eta(g(u+), g(u_n))|| drops to
    tol.  At least one step is always taken.

    Parameters
    ----------
    problem : VarLikeProblem
    config : SolveConfig, optional
    u0 : array_like, optional

    Returns
    -------
    SolveReport
    """
    config, rho, u = prepare_solve(problem, config, u0, default=1.0)

    def step(u, k):
        gu = g_value(problem, u)
        g_next = _checked_oracle_value(problem.K, problem.aux_oracle(u, gu, rho), "variational-like")
        u_next = recover_iterate(problem, u, g_next, gu)
        check_divergence(u_next)
        return u_next, float(np.linalg.norm(np.asarray(problem.eta(g_next, gu), dtype=float))), None

    return iterate(u, np.inf, step, config, {"algorithm": "varlike", "rho": rho})


def _half_step(problem, u, t, rho, config):
    """Minimize rho*<t, v> + (1/2)||v - u||^2 + (nu/p)||v - u||^p over K, given t = T(u).

    The minimizer is V(tau) = P_K[u - tau*rho*t] at tau = 1/(1 + nu*||V - u||^(p-2)):
    1/(1 + nu) for p = 2, else the one root in (0, 1] of psi(tau) = nu*tau*||V(tau) - u||^(p-2)
    + tau - 1.  Illinois regula falsi from psi(0+) = -1 <= psi(1) stops at
    (hi - lo)*rho*||t|| <= inner_tol, so, as P_K is nonexpansive, the V returned lies
    within inner_tol of the minimizer.
    """
    K, p, nu = problem.base.K, problem.p, problem.nu
    d = -rho * t
    if p == 2.0:
        return project(K, u + d / (1.0 + nu))
    width = vector_norm(d)

    def psi(tau):
        v = project(K, u + tau * d)
        s = vector_norm(v - u)
        # For p < 2, v = u at tau > 0 puts -t in K's normal cone at u: u is the minimizer.
        return v, (nu * tau * s ** (p - 2.0) + tau - 1.0 if s > 0.0 or p > 2.0 else 0.0)

    lo, hi, f_lo, f_last = 0.0, 1.0, -1.0, 0.0
    v, f_hi = psi(hi)
    while f_hi != 0.0 and (hi - lo) * width > config.inner_tol:
        tau = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
            if not lo < tau < hi:  # no float inside the bracket
                break
        v, f = psi(tau)
        if f < 0.0:  # Illinois: halve the value at the end kept twice in a row
            lo, f_lo, f_hi = tau, f, f_hi * (0.5 if f_last < 0.0 else 1.0)
        else:
            hi, f_hi, f_lo = tau, f, f_lo * (0.5 if f_last > 0.0 else 1.0)
        f_last = f
    return v


def solve_higher_order(problem, config=None, u0=None, mode="two_step"):
    """Iterate the p-th power regularized subproblem.

    mode="two_step" runs two half-steps per iteration, y = P_K[u_n - tau*rho*T(u_n)]
    then u+ = P_K[y - tau'*rho*T(y)], each at the tau that solves the subproblem
    anchored and centered at its start (tau = 1 for nu = 0).  For p < 2, tau
    shrinks with the step: the mode is sublinear there and may end at max_iters.
    mode="implicit" instead anchors the subproblem at u+ and centers it at u_n,
    where the penalty's gradient is 0: whatever p and nu are, u+ is the
    proximal-point resolvent (I + rho*T + N_K)^{-1}(u_n), the fixed point of
    w -> P_K[u_n - rho*T(P_K w)].  Both modes step inside
    :func:`~gvikit.core.iterate_residual` at a kept rho, so they stop on
    ||R(u, rho)|| <= tol at the point they return.

    Parameters
    ----------
    problem : HigherOrderProblem
    config : SolveConfig, optional
        rho None runs at rho_ref from :func:`~gvikit.core.first_difference_rho`
        at u_0, whose T(u_0) also serves the first step.
    u0 : array_like, optional
    mode : {"two_step", "implicit"}

    Returns
    -------
    SolveReport

    Raises
    ------
    CapabilityError
        When the base problem has a non-identity g.
    InnerLoopError
        When the implicit fixed point stalls.
    """
    if mode not in ("two_step", "implicit"):
        raise ValueError("mode must be 'two_step' or 'implicit'")
    base = problem.base
    if base.g is not None:
        raise CapabilityError("the built-in subproblem solver needs g = identity")
    config, _, u = prepare_solve(base, config, u0)

    def update(u, s, k):
        if mode == "two_step":
            y = _half_step(problem, u, s.t, s.rho, config)
            u_next, t_next = _half_step(problem, y, effective_T(base, y), s.rho, config), None
        else:
            last = None  # (P_K w, T(P_K w)) of the last trial

            # The resolvent map, composed with P_K (which keeps its fixed points) so T sees only K.
            def resolvent_map(w):
                nonlocal last
                x = project(base.K, w)
                last = x, effective_T(base, x)
                return project(base.K, u - s.rho * last[1])

            # The stage's projection gives the first inner value: at w = u the
            # resolvent map projects u - rho*T(u), exactly so for u in K.
            u_next, _ = inner_fixed_point(resolvent_map, u, config, "higher-order implicit step", k, w_next=s.p)
            # A trial can land on the fixed point itself; then T there is already known.
            t_next = last[1] if last is not None and np.array_equal(last[0], u_next) else None
        step = u_next - u
        return u_next, {"step_sq": float(step @ step)}, t_next

    details = {"algorithm": "higher-order", "mode": mode, "p": problem.p, "nu": problem.nu}
    return iterate_residual(base, config, u, update, details, lyapunov=known_solution_lyapunov(base), learn=False)
