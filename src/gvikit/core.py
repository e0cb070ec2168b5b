"""Problem model, residual maps, and diagnostics shared by every solver.

The central object is :class:`GviProblem`: find u with g(u) in K such that

    <T(u), g(v) - g(u)> >= 0   for all v with g(v) in K.

Solvers consume a :class:`SolveConfig` and produce a :class:`SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, DivergenceError, InnerLoopError, NumericDomainError, UnsupportedSetError
from .sets import ConvexSet, NonnegOrthant, project

_DIVERGENCE_LIMIT = 1e12
# Relative factor of the inner-loop stop rule at the first outer step.
_INNER_KAPPA = 0.1
# A learned rho grows by at most this factor per step, and reaches at most
# this fraction of the local ratio ||du|| / ||dT|| (see iterate_residual).
_RHO_GROWTH = 1.2
_RHO_LOCAL = 0.5
# Length of the first difference that gives a learned run its rho_ref.
_FIRST_DIFFERENCE = 1e-4


@dataclass
class GviProblem:
    """A general variational inequality over a structured convex set.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    T : callable
        Operator mapping an n-vector to an n-vector.
    K : ConvexSet
        Constraint set for the g-image.
    g : callable, optional
        Point map; None means the identity.
    g_inverse : callable, optional
        Inverse of g, required by algorithms that update in g-image space.
        Checked against g on a probe set at construction.
    known_solution : ndarray, optional
        Reference solution when available, used by diagnostics.
    """

    dim: int
    T: Callable[[np.ndarray], np.ndarray]
    K: ConvexSet
    g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    g_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.known_solution is not None:
            self.known_solution = np.asarray(self.known_solution, dtype=float)
        if self.g_inverse is not None:
            self._check_g_inverse()

    def _check_g_inverse(self):
        # Probe g_inverse(g(u)) = u on a small deterministic set; no g is the identity.
        rng = np.random.default_rng(0)
        probes = [np.zeros(self.dim), np.ones(self.dim)]
        probes += [rng.standard_normal(self.dim) for _ in range(3)]
        for u in probes:
            back = np.asarray(self.g_inverse(u if self.g is None else self.g(u)), dtype=float)
            if not np.allclose(back, u, rtol=0.0, atol=1e-10):
                raise ValueError("g_inverse(g(u)) deviates from u beyond 1e-10 on probe set")


def eval_operator(problem, name, u):
    """Evaluate one of the problem's maps with a finiteness check.

    Parameters
    ----------
    problem : GviProblem
    name : str
        One of ``"T"``, ``"g"``, ``"g_inverse"``.
    u : ndarray

    Returns
    -------
    ndarray

    Raises
    ------
    NumericDomainError
        If the map returns non-finite values.
    """
    fn = getattr(problem, name)
    if name == "g" and fn is None:
        return np.asarray(u, dtype=float)
    if name == "g_inverse" and fn is None:
        if problem.g is None:
            return np.asarray(u, dtype=float)
        raise CapabilityError("g_inverse required but not supplied")
    out = np.atleast_1d(np.asarray(fn(u), dtype=float))
    if not np.isfinite(out).all():
        raise NumericDomainError(name)
    return out


def effective_T(problem, u):
    """T(u), the operator driving every residual and step, checked finite."""
    return eval_operator(problem, "T", u)


def g_value(problem, u):
    """g(u), defaulting to u itself when no g is supplied."""
    return eval_operator(problem, "g", u)


def recover_iterate(problem, point, new_g_value, g_point=None):
    """Recover an iterate whose g-value should equal ``new_g_value``.

    Uses g_inverse when supplied, otherwise the fixed-point device
    ``point - g(point) + new_g_value`` (exact when g is the identity).

    Parameters
    ----------
    problem : GviProblem
    point : ndarray
        Reference iterate at which the device is applied.
    new_g_value : ndarray
        Target value in g-image space.
    g_point : ndarray, optional
        g(point) when the caller already holds it; g is then not
        evaluated again.

    Returns
    -------
    ndarray
    """
    if problem.g is None:
        return np.asarray(new_g_value, dtype=float)
    if problem.g_inverse is not None:
        return eval_operator(problem, "g_inverse", new_g_value)
    return point - (g_value(problem, point) if g_point is None else g_point) + new_g_value


@dataclass
class SolveConfig:
    """Algorithm parameters shared by all solvers.

    Parameters
    ----------
    rho : float, optional
        Step scalar.  None means rho_ref = 0.5 ||du|| / ||dT|| of one
        first difference at the start point (see
        :func:`first_difference_rho`).  The residual solvers start from
        it and learn rho along the run, gap descent and the higher-order
        solver keep it for the whole run, and all of them stop where the
        residual at rho_ref is at most tol (see :func:`iterate_residual`);
        the oracle solvers take 1 instead.
    tol : float
        Residual-norm stopping threshold.
    max_iters : int
        Outer iteration cap.
    lam, xi : float
        Two-step scheme weights in [0, 1].
    h : float
        Time step for the dynamical-system schemes.
    mu_step, beta_step : float, optional
        First and second projection steps of the three-step scheme;
        None means "use rho".
    sigma : float
        Armijo sufficient-decrease constant.
    gamma : float
        Armijo backtracking ratio.
    alpha : float
        Sufficient-decrease constant for the gap-descent line search.
    inner_tol : float
        Floor of the stop test of the inner fixed-point loops of implicit
        schemes, which otherwise stop relative to their first step (see
        :func:`inner_fixed_point`); also the bound on the distance of each
        higher-order two-step half-step from the minimizer on its arc.
    inner_max_iters : int
        Cap for the inner fixed-point loops only.
    alpha_schedule : float or callable, optional
        Per-iteration blending weight alpha_n (constant or n -> alpha_n);
        None selects the solver's default.
    """

    rho: Optional[float] = None
    tol: float = 1e-7
    max_iters: int = 1000
    lam: float = 0.5
    xi: float = 0.5
    h: float = 1.0
    mu_step: Optional[float] = None
    beta_step: Optional[float] = None
    sigma: float = 0.5
    gamma: float = 0.8
    alpha: float = 0.3
    inner_tol: float = 1e-10
    inner_max_iters: int = 10000
    alpha_schedule: object = None

    def __post_init__(self):
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 <= self.lam <= 1 or not 0 <= self.xi <= 1:
            raise ValueError("lam and xi must lie in [0, 1]")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.mu_step is not None and self.mu_step < 0:
            raise ValueError("mu_step must be nonnegative")
        if self.beta_step is not None and self.beta_step < 0:
            raise ValueError("beta_step must be nonnegative")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise ValueError("inner_max_iters must be >= 1")

    def alpha_at(self, n, default=1.0):
        """Resolve the blending weight alpha_n for iteration n."""
        rule = self.alpha_schedule
        if rule is None:
            return default
        if callable(rule):
            return float(rule(n))
        return float(rule)


@dataclass
class TraceRecord:
    """One per-iteration trace entry."""

    residual_norm: float
    lyapunov: Optional[float] = None
    info: Optional[dict] = None


@dataclass
class SolveReport:
    """Outcome of a solver run.

    Attributes
    ----------
    solution : ndarray
        Final iterate.
    iterations : int
        Number of update steps performed.
    residual_norm : float
        Stopping-quantity norm at the final iterate.
    converged : bool
        Whether the stopping threshold was met.
    trace : list of TraceRecord
        One record per iterate including the start (length iterations + 1).
    details : dict
        Solver-specific annotations (step choices, fallbacks, ...).
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


class Stage(NamedTuple):
    """The projection stage at a point u, for a step scalar rho.

    gu = g(u), t = T(u) and p = P_K[gu - rho*t].  Every
    residual-driven solver steps from the stage at its current iterate,
    with the stage's rho, so T is evaluated once per point.
    """

    gu: np.ndarray
    t: np.ndarray
    p: np.ndarray
    rho: float

    @property
    def r(self):
        """The projection residual g(u) - P_K[g(u) - rho*T(u)]."""
        return self.gu - self.p

    def norm(self):
        """Euclidean norm of the residual."""
        return vector_norm(self.r)


def projection_stage(problem, u, rho, t=None):
    """Evaluate g, T and one projection at u; see :class:`Stage`.

    ``t``, when given, is T(u) already known to the caller.  rho None
    takes rho_ref from :func:`first_difference_rho` at u, which reuses
    T(u) and so costs one T evaluation.

    g(u) - rho*T(u) is formed in one new array: (-rho)*T(u) is written
    into it and g(u) added in place.  (-rho)*t is exactly -(rho*t), so the
    point is bit for bit ``gu - rho * t``, signed zeros included.
    """
    gu = g_value(problem, u)
    if t is None:
        t = effective_T(problem, u)
    if rho is None:
        rho = first_difference_rho(problem, u, gu, t)
    point = t * -rho
    if point.shape == gu.shape:
        point += gu
    else:  # a T(u) that broadcasts against g(u)
        point = gu + point
    return Stage(gu, t, project(problem.K, point), rho)


def device_iterate(problem, u, gu, w):
    """The iterate u - g(u) + w of the fixed-point device, whose g-value is w.

    For the identity g that is w itself, returned as is.  Any other g
    takes the device, whether or not g_inverse is supplied (compare
    :func:`recover_iterate`).
    """
    return w if problem.g is None else u - gu + w


def residual(problem, u, rho):
    """Projection residual R(u) = g(u) - P_K[g(u) - rho*T(u)].

    Zero exactly at solutions of the variational inequality.

    Parameters
    ----------
    problem : GviProblem
    u : array_like
    rho : float
        Positive step scalar.

    Returns
    -------
    ndarray
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    return projection_stage(problem, np.atleast_1d(np.asarray(u, dtype=float)), rho).r


def is_solution(problem, u, rho, tol=1e-7):
    """True iff the Euclidean residual norm is at most tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return float(np.linalg.norm(residual(problem, u, rho))) <= tol


@dataclass
class ComplementarityGap:
    """Violations of the cone complementarity system."""

    primal_violation: float
    dual_violation: float
    pairing: float


def complementarity_gap(problem, u):
    """Complementarity diagnostics for cone constraints.

    Requires K to be the nonnegative orthant.  A point solves the
    complementarity system iff all three returned quantities vanish:
    g(u) >= 0, T(u) >= 0, and <T(u), g(u)> = 0.

    Parameters
    ----------
    problem : GviProblem
    u : array_like

    Returns
    -------
    ComplementarityGap
        primal_violation = ||min(g(u), 0)||_inf,
        dual_violation = ||min(T(u), 0)||_inf,
        pairing = <T(u), g(u)>.
    """
    if not isinstance(problem.K, NonnegOrthant):
        raise UnsupportedSetError("complementarity_gap requires a cone (NonnegOrthant) constraint")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    gu = g_value(problem, u)
    tu = effective_T(problem, u)
    primal = float(np.linalg.norm(np.minimum(gu, 0.0), ord=np.inf))
    dual = float(np.linalg.norm(np.minimum(tu, 0.0), ord=np.inf))
    return ComplementarityGap(primal, dual, float(tu @ gu))


def quasi_to_general(m, K, T, dim):
    """Reduce a quasi variational inequality with K(u) = m(u) + K.

    Parameters
    ----------
    m : callable
        Point-to-point mapping defining the moving set.
    K : ConvexSet
        Fixed convex core of the moving set.
    T : callable
        Operator of the quasi variational inequality.
    dim : int

    Returns
    -------
    GviProblem
        Problem with g(u) = u - m(u); its solutions solve the quasi
        variational inequality.
    """

    def g(u):
        return np.asarray(u, dtype=float) - np.asarray(m(u), dtype=float)

    return GviProblem(dim=dim, T=T, K=K, g=g)


def wiener_hopf_residual(problem, z, rho):
    """Residual of the equation rho*T(g_inverse(P_K z)) + z - P_K z.

    Parameters
    ----------
    problem : GviProblem
        Must have g = identity or supply g_inverse.
    z : array_like
    rho : float

    Returns
    -------
    ndarray
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    pz = project(problem.K, z)
    u = eval_operator(problem, "g_inverse", pz)
    return rho * effective_T(problem, u) + z - pz


def prepare_solve(problem, config, u0, default=None):
    """How every solve starts: its config, its step scalar rho and its start point.

    The config is ``SolveConfig()`` when None.  rho is ``config.rho``,
    or ``default`` when that is None: the oracle solvers pass 1.0, and
    the solvers that take rho_ref from :func:`first_difference_rho` at
    the start point leave it None.  The start point is a private copy of
    u0, or the projection of the origin onto K when u0 is None.
    """
    config = SolveConfig() if config is None else config
    rho = default if config.rho is None else config.rho
    if u0 is None:
        return config, rho, project(problem.K, np.zeros(problem.dim))
    return config, rho, np.atleast_1d(np.asarray(u0, dtype=float)).copy()


def known_solution_lyapunov(problem):
    """u -> ||g(u*) - g(u)||^2 for the problem's known solution u*, or None without one.

    g(u*) is evaluated once, when this is called.
    """
    if problem.known_solution is None:
        return None
    g_star = g_value(problem, problem.known_solution)

    def lyapunov(u):
        gap = g_star - g_value(problem, u)
        return float(gap @ gap)

    return lyapunov


def vector_norm(x):
    """Euclidean norm of a real 1-d array: np.linalg.norm's value, without its wrapper."""
    return math.sqrt(x @ x)


def check_divergence(u):
    """Raise when an iterate leaves the trust region of the solvers.

    A non-finite entry raises NumericDomainError, and a finite iterate of
    norm above 1e12 (its norm may overflow to inf) DivergenceError.  The
    decision takes one norm: the entries are scanned only when that norm
    is not at most 1e12, which a NaN or inf entry makes it.
    """
    if vector_norm(u) <= _DIVERGENCE_LIMIT:
        return
    if not np.isfinite(u).all():
        raise NumericDomainError("iterate")
    raise DivergenceError(u)


def inner_fixed_point(fn, w, config, tag, k, w_next=None):
    """Approximate a fixed point of fn by safeguarded depth-one Anderson trials.

    The loop takes outer step k of an implicit scheme.  Trial j has the
    residual f_j = fn(w_j) - w_j, and the loop stops once

        ||f_J|| <= max(inner_tol, kappa_k * ||f_0||),
        kappa_k = _INNER_KAPPA / (k + 1)^2,

    the relative-error rule of inexact proximal-point methods
    (Rockafellar, SIAM J. Control Optim. 14, 1976; Solodov and Svaiter,
    Set-Valued Anal. 7, 1999).  ||f_0|| is the first plain step
    ||w_1 - w_0||, as large as the outer move.  The next trial is the
    depth-one (type-II) Anderson point (Walker and Ni, SIAM J. Numer.
    Anal. 49, 2011)

        w_{j+1} = (1 - gamma_j) fn(w_j) + gamma_j fn(w_{j-1}),
        gamma_j = <f_j, f_j - f_{j-1}> / ||f_j - f_{j-1}||^2,

    except that the first trial is plain, w_1 = fn(w_0), and once a
    residual fails to decrease every later trial of the loop is plain,
    w_{j+1} = fn(w_j) (the safeguard of Zhang, O'Donoghue and Boyd, SIAM
    J. Optim. 30, 2020).  The loop returns fn(w_J).  For an inner map of
    modulus q < 1 that value lies within q/(1-q) ||f_J|| of the exact
    fixed point, whatever the trial w_J, so the inner error is of order
    kappa_k times the outer move.  kappa_k is summable along the run, as
    Rockafellar's criteria require.  At a fixed point of fn the first
    residual is 0 and one evaluation is made.

    ``w_next``, when given, is fn(w) already known to the caller; it
    counts as the first evaluation.

    Returns
    -------
    (ndarray, int)
        fn(w_J) and the number of evaluations of fn.

    Raises
    ------
    InnerLoopError
        Tagged with ``tag`` after inner_max_iters evaluations; the
        message gives the last ratio of residual norms, which is the step
        ratio of the plain iteration.
    """
    stop = value = res = norm = None
    accelerate = True
    for inner in range(1, config.inner_max_iters + 1):
        prev_value, prev_res, prev_norm = value, res, norm
        value = fn(w) if w_next is None else w_next
        w_next = None
        res = value - w
        norm = vector_norm(res)
        if stop is None:
            stop = max(config.inner_tol, _INNER_KAPPA / (k + 1) ** 2 * norm)
        if norm <= stop:
            return value, inner
        if prev_norm is not None and norm >= prev_norm:
            accelerate = False
        w = value
        if accelerate and prev_res is not None:
            # A decreasing residual makes the difference nonzero.
            diff = res - prev_res
            w = value - (res @ diff) / (diff @ diff) * (value - prev_value)
    ratio = norm / prev_norm if prev_norm else float("nan")
    raise InnerLoopError(
        tag,
        f"inner fixed-point loop for {tag!r} did not converge in {config.inner_max_iters} evaluations;"
        f" its last step ratio ||F(w_j) - w_j|| / ||F(w_(j-1)) - w_(j-1)|| is {ratio:.3g}.  A ratio near"
        " or above 1 means the inner map does not contract at this rho (rho*L >= 1): use a smaller rho.",
    )


def iterate(u, norm, step, config, details, lyapunov=None):
    """The outer loop of every solver.

    Steps until the stopping quantity drops to ``config.tol`` or
    ``config.max_iters`` steps have run, recording one trace entry per
    iterate including the start.

    Parameters
    ----------
    u : ndarray
        Start point.
    norm : float
        Stopping quantity at the start point.
    step : callable
        ``step(u, k) -> (u_next, norm_next, info)`` takes step k (from 0).
        It calls :func:`check_divergence` on u_next before evaluating any
        map there.
    config : SolveConfig
    details : dict
        Report annotations.
    lyapunov : callable, optional
        u -> value recorded on every trace entry.

    Returns
    -------
    SolveReport
    """

    def record(u, norm, info):
        return TraceRecord(norm, None if lyapunov is None else lyapunov(u), info)

    trace = [record(u, norm, None)]
    k = 0
    while norm > config.tol and k < config.max_iters:
        u, norm, info = step(u, k)
        k += 1
        trace.append(record(u, norm, info))
    return SolveReport(
        solution=u,
        iterations=k,
        residual_norm=norm,
        converged=bool(norm <= config.tol),
        trace=trace,
        details=details,
    )


def first_difference_rho(problem, u, gu, t):
    """rho_ref = 0.5 ||x - u|| / ||T(x) - T(u)|| from one difference at u.

    gu = g(u) and t = T(u) are known to the caller.  x is recovered from
    P_K[gu - (eps / ||t||) t], a point with g(x) in K at most eps from gu
    when gu is in K, so T is evaluated once, and only there.  A T that
    vanishes at u, or does not change along the difference, gives 1.0.
    """
    t_size = vector_norm(t)
    if t_size == 0.0:
        return 1.0
    x = recover_iterate(problem, u, project(problem.K, gu - (_FIRST_DIFFERENCE / t_size) * t), gu)
    step = vector_norm(x - u)
    t_change = vector_norm(effective_T(problem, x) - t)
    if t_change <= 1e-12 * step:
        return 1.0
    return _RHO_LOCAL * step / t_change


def iterate_residual(problem, config, u, update, details, lyapunov=None, learn=True):
    """Run :func:`iterate` on the projection residual.

    ``update(u, s, k) -> (u_next, info, ahead)`` takes step k from the
    stage s at u, with the stage's step scalar ``s.rho``; info may instead
    be a callable of the stages at u and u_next.  ahead is what the step
    already knows at u_next: the stage there (gap descent's accepted
    trial), which is taken as is when its rho is the next stage's rho,
    else T(u_next), else None.  The stage at each new iterate serves both
    the stop test and the next step.

    The start stage has rho = ``config.rho`` when that is given, else
    rho_ref from :func:`first_difference_rho` (see :func:`projection_stage`).
    Every stage keeps a given rho, and rho_ref when ``learn`` is False (gap
    descent and the higher-order solver); a solver whose rho is fixed
    whatever the caller asks (the double-projection pair) sets
    ``config.rho`` to it.  Otherwise the stage at u_{k+1} has the learned
    step of Malitsky and Mishchenko (Adaptive gradient descent without
    descent, ICML 2020)

        rho_{k+1} = min(1.2 rho_k, 0.5 ||u_{k+1} - u_k|| / ||T(u_{k+1}) - T(u_k)||),

    without the second term when T did not change.  T(u_{k+1}) is the
    stage's own evaluation, so the rule costs no T evaluation.  For g(u)
    in K, ||R(u, rho)|| is nondecreasing and ||R(u, rho)|| / rho is
    nonincreasing in rho (Calamai and Moré, Math. Program. 39, 1987,
    Lemma 2.2), so the stopping quantity

        max(1, rho_ref / rho_k) ||R(u, rho_k)|| >= ||R(u, rho_ref)||

    certifies tol at rho_ref; at a kept rho it is ||R(u, rho)||.  The
    report details gain ``rho``, the rho of the final stage, and
    ``rho_ref``.
    """
    s = projection_stage(problem, u, config.rho)
    rho_ref, learn = s.rho, learn and config.rho is None

    def bound(s):
        norm = s.norm()
        return norm if s.rho >= rho_ref else rho_ref / s.rho * norm

    def step(u, k):
        nonlocal s
        u_next, info, ahead = update(u, s, k)
        check_divergence(u_next)
        t_next = ahead.t if isinstance(ahead, Stage) else ahead
        rho_next = s.rho
        if learn:
            if t_next is None:
                t_next = effective_T(problem, u_next)
            rho_next = _RHO_GROWTH * s.rho
            t_change = vector_norm(t_next - s.t)
            if t_change > 0.0:
                rho_next = min(rho_next, _RHO_LOCAL * vector_norm(u_next - u) / t_change)
        if not (isinstance(ahead, Stage) and ahead.rho == rho_next):
            ahead = projection_stage(problem, u_next, rho_next, t_next)
        prev, s = s, ahead
        return u_next, bound(s), info(prev, s) if callable(info) else info

    report = iterate(u, bound(s), step, config, details, lyapunov=lyapunov)
    report.details = dict(details, rho=s.rho, rho_ref=rho_ref)
    return report
