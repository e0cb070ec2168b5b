"""Sampling-based certification of convexity-type function classes.

Each check turns one definitional inequality into an executable sweep
over sampled point pairs and a t-grid, reporting the worst violation
and the triple that achieved it.  Verdicts are always "no violation
found on the sampled domain", never a proof: the definitions quantify
over continua.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import erf

from .errors import NumericDomainError

_BASE_TOL = 1e-9
_FD_STEP = 1e-6


def default_t_grid():
    """Default blend grid {0, 0.1, ..., 1} with 0.5 included exactly."""
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), [0.5]]))


@dataclass(frozen=True)
class FunctionUnderTest:
    """A scalar function together with everything its checks need.

    F maps g-image points to scalars; grad_F, when given, is its
    gradient at g-image points.  domain_sampler(rng) yields points whose
    g-images lie in the intended convex set.  p and mu parameterize the
    strengthening term of the target class.
    """

    F: Callable
    domain_sampler: Callable
    grad_F: Optional[Callable] = None
    g: Optional[Callable] = None
    p: float = 2.0
    mu: float = 0.0

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def g_image(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return u if self.g is None else np.atleast_1d(np.asarray(self.g(u), dtype=float))

    def value(self, y):
        return float(self.F(y))

    def gradient(self, y):
        if self.grad_F is not None:
            return np.atleast_1d(np.asarray(self.grad_F(y), dtype=float))
        y = np.asarray(y, dtype=float)
        steps = _FD_STEP * np.eye(y.size)
        return np.array([(self.value(y + step) - self.value(y - step)) / (2.0 * _FD_STEP) for step in steps])


@dataclass(frozen=True)
class CertReport:
    """Outcome of one sampled certification sweep.

    worst_violation is the largest LHS - RHS of the target inequality
    over all checked triples, witness the (u, v, t) triple achieving it,
    and verdict "pass" when the worst violation stays within the
    value-scale-normalized tolerance.  details carries check-specific
    extras (per-leg violations, fitted moduli).
    """

    checked_count: int
    worst_violation: float
    witness: tuple
    verdict: str
    details: Optional[dict] = None

    @property
    def passed(self):
        return self.verdict == "pass"


class _Pair:
    """Values at a pair, each computed once, and every class's inequality on them."""

    def __init__(self, fut, u, v):
        self.fut = fut
        self.yu, self.yv = fut.g_image(u), fut.g_image(v)
        self.Fu, self.Fv = fut.value(self.yu), fut.value(self.yv)
        with np.errstate(over="ignore"):
            self.eu, self.ev = np.exp(self.Fu), np.exp(self.Fv)
        self.gap = float(np.linalg.norm(self.yv - self.yu))

    def F_at(self, t):
        return self.fut.value(self.yu + t * (self.yv - self.yu))

    def hos(self, t):
        p, mu = self.fut.p, self.fut.mu
        bound = (1.0 - t) * self.Fu + t * self.Fv - mu * (t**p * (1.0 - t) + t * (1.0 - t) ** p) * self.gap**p
        return self.F_at(t) - bound

    def gradient_char(self):
        fut, growth = self.fut, self.gap**self.fut.p
        grad_u = fut.gradient(self.yu)
        lower = self.Fu + float(grad_u @ (self.yv - self.yu)) + fut.mu * growth - self.Fv
        mono = 2.0 * fut.mu * growth - float((grad_u - fut.gradient(self.yv)) @ (self.yu - self.yv))
        return max(lower, mono)

    def exp_curve(self, t, strong):
        strengthening = self.fut.mu * t * (1.0 - t) * self.gap**2 if strong else 0.0
        bound = (1.0 - t) * self.eu + t * self.ev - strengthening
        return float(np.exp(self.F_at(t)) - bound)

    def exp_differential(self, strong):
        mu = self.fut.mu if strong else 0.0
        lhs = float(self.eu * self.fut.gradient(self.yu) @ (self.yv - self.yu)) + mu * self.gap**2
        return lhs - (float(self.ev) - self.eu)

    def hierarchy(self, t, tol=1e-12):
        """(implication violation, leg values) at the triple; see hierarchy_violation."""
        e_mid = float(np.exp(self.F_at(t)))
        e_u, e_v = float(self.eu), float(self.ev)
        legs = {"convex": e_mid - ((1.0 - t) * e_u + t * e_v), "quasi": e_mid - max(e_u, e_v)}
        worst = -np.inf
        if self.Fu > 0 and self.Fv > 0:
            legs["log"] = e_mid - e_u ** (1.0 - t) * e_v**t
            if legs["log"] <= tol:
                worst = max(worst, legs["convex"])
        if legs["convex"] <= tol:
            worst = max(worst, legs["quasi"])
        return worst, legs


def _sweep(draw, samples, seed, pair, t_grid=(None,), details=None):
    """The one sampling loop: per sample draw u, then v, and sweep t_grid.

    pair(u, v) returns (scale, at); at(t) returns the triple's violation
    and a dict of leg values.  t_grid=None is default_t_grid(); checks
    without t keep (None,).  A triple counts only if its scale, set by
    the two ends, is finite and none of its values is NaN: an end whose
    e^F overflows tests nothing, while an overflow at the blend point
    alone is a real, infinite violation.  details(low, high) gets the
    smallest and largest value of each leg.
    """
    t_values = [None if t is None else float(t) for t in (default_t_grid() if t_grid is None else t_grid)]
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not t_values:
        raise ValueError("t_grid must hold at least one t")
    rng = np.random.default_rng(seed)
    worst, witness, scale, count = -np.inf, None, 0.0, 0
    low, high = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(samples):
            u = draw(rng)
            v = draw(rng)
            pair_scale, at = pair(u, v)
            if not np.isfinite(pair_scale):
                continue
            for t in t_values:
                viol, legs = at(t)
                if any(math.isnan(x) for x in (viol, *legs.values())):
                    continue
                count += 1
                scale = max(scale, pair_scale)
                if viol > worst:
                    worst, witness = viol, (u, v, t)
                for leg, value in legs.items():
                    low[leg] = min(low.get(leg, np.inf), value)
                    high[leg] = max(high.get(leg, -np.inf), value)
    if count == 0:
        raise NumericDomainError("F", "no sampled triple had finite values to check")
    verdict = "pass" if worst <= _BASE_TOL * max(1.0, scale) else "fail"
    return CertReport(count, worst, witness, verdict, None if details is None else details(low, high))


def hos_convex_violation(fut, u, v, t):
    """LHS - RHS of the higher order strong convexity inequality."""
    return _Pair(fut, u, v).hos(t)


def check_hos_convex(fut, samples=200, t_grid=None, seed=0):
    """Sweep the higher order strong convexity inequality.

    F(g(u)+t(g(v)-g(u))) <= (1-t)F(g(u)) + tF(g(v))
                            - mu{t^p(1-t)+t(1-t)^p}||g(v)-g(u)||^p
    over sampled pairs and the t-grid.

    Parameters
    ----------
    fut : FunctionUnderTest
    samples : int
    t_grid : array_like, optional
    seed : int

    Returns
    -------
    CertReport
    """

    def pair(u, v):
        e = _Pair(fut, u, v)
        return max(abs(e.Fu), abs(e.Fv)), lambda t: (e.hos(t), {})

    return _sweep(fut.domain_sampler, samples, seed, pair, t_grid)


def gradient_char_violation(fut, u, v):
    """Worst of the first-order and monotonicity violations at a pair."""
    return _Pair(fut, u, v).gradient_char()


def check_gradient_char(fut, samples=200, seed=0):
    """Sweep the two differential characterizations of the class.

    First order: F(g(v)) >= F(g(u)) + <F'(g(u)), g(v)-g(u)>
                 + mu||g(v)-g(u)||^p;
    monotonicity: <F'(g(u))-F'(g(v)), g(u)-g(v)> >= 2mu||g(v)-g(u)||^p.
    The gradient falls back to central differences when absent.

    Parameters
    ----------
    fut : FunctionUnderTest
    samples : int
    seed : int

    Returns
    -------
    CertReport
    """

    def pair(u, v):
        e = _Pair(fut, u, v)
        return max(abs(e.Fu), abs(e.Fv)), lambda t: (e.gradient_char(), {})

    return _sweep(fut.domain_sampler, samples, seed, pair)


def _parallelogram(p, mu, u, v):
    """Lower-law terms at a pair: (violation, rhs, ||u+v||^p, ||v-u||^p)."""
    u, v = (np.atleast_1d(np.asarray(w, dtype=float)) for w in (u, v))
    plus = float(np.linalg.norm(u + v)) ** p
    gap = float(np.linalg.norm(v - u)) ** p
    rhs = 2.0 ** (p - 1.0) * (float(np.linalg.norm(u)) ** p + float(np.linalg.norm(v)) ** p)
    return plus + mu * gap - rhs, rhs, plus, gap


def parallelogram_violation(p, mu, u, v):
    """Signed lower-law violation ||u+v||^p + mu||v-u||^p - 2^{p-1}(...)."""
    return _parallelogram(p, mu, u, v)[0]


def check_parallelogram(p, mu, samples=500, dim=3, seed=0):
    """Sweep the p-th power parallelogram laws on random vector pairs.

    worst_violation is the signed lower-law excess at the given mu;
    details report the largest modulus for which the lower law held on
    the samples (mu_lower), the smallest for the upper law (mu_upper),
    and the absolute two-sided deviation at the given mu
    (equality_violation), which vanishes classically for p = 2, mu = 1.

    Parameters
    ----------
    p : float
    mu : float
    samples : int
    dim : int
    seed : int

    Returns
    -------
    CertReport
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    if dim < 1:
        raise ValueError("dim must be at least 1")

    def pair(u, v):
        viol, rhs, plus, gap = _parallelogram(p, mu, u, v)
        legs = {"equality_violation": abs(viol)}
        if gap > 1e-12:
            legs["quotient"] = (rhs - plus) / gap
        return abs(rhs), lambda t: (viol, legs)

    def details(low, high):
        return {"mu_lower": low.get("quotient", np.nan), "mu_upper": high.get("quotient", np.nan),
                "equality_violation": high["equality_violation"]}

    return _sweep(lambda rng: rng.standard_normal(dim), samples, seed, pair, details=details)


def exp_convex_violation(fut, u, v, t, strong=False):
    """LHS - RHS of the (strong) exponential convexity inequality."""
    return _Pair(fut, u, v).exp_curve(t, strong)


def exp_gradient_violation(fut, u, v, strong=False):
    """LHS - RHS of the differential exponential convexity bound."""
    return _Pair(fut, u, v).exp_differential(strong)


def check_exp_convex(fut, samples=200, t_grid=None, seed=0, strong=False, concave=False):
    """Sweep the exponential convexity inequality, optionally strong.

    e^{F((1-t)g(u)+tg(v))} <= (1-t)e^{F(g(u))} + te^{F(g(v))}, with the
    strong form subtracting mu t(1-t)||g(v)-g(u)||^2 from the bound.
    When grad_F is supplied the differential bound
    e^{F(g(v))} - e^{F(g(u))} >= <e^{F(g(u))}F'(g(u)), g(v)-g(u)>
                                 + mu||g(v)-g(u)||^2
    is swept as well.  concave=True certifies the mirrored class by
    checking -F.

    Parameters
    ----------
    fut : FunctionUnderTest
    samples : int
    t_grid : array_like, optional
    seed : int
    strong, concave : bool

    Returns
    -------
    CertReport
    """
    if concave:
        neg_grad = None if fut.grad_F is None else (lambda y: -np.asarray(fut.grad_F(y)))
        flipped = replace(fut, F=lambda y: -fut.F(y), grad_F=neg_grad)
        return check_exp_convex(flipped, samples, t_grid, seed, strong=strong)

    def pair(u, v):
        e = _Pair(fut, u, v)
        legs = {} if fut.grad_F is None else {"differential": e.exp_differential(strong)}

        def at(t):
            curve = e.exp_curve(t, strong)
            return max([curve, *legs.values()]), {"curve": curve, **legs}

        return max(e.eu, e.ev), at

    return _sweep(fut.domain_sampler, samples, seed, pair, t_grid, lambda low, high: high)


def hierarchy_violation(fut, u, v, t, tol=1e-12):
    """Implication violation along log-convex => convex => quasi-convex.

    Returns the worst failed conclusion at the triple: the convex excess
    where the log-convex inequality held, and the quasi-convex excess
    where the convex inequality held.  The log leg is only consulted
    where F > 0 at both ends.
    """
    return _Pair(fut, u, v).hierarchy(t, tol)[0]


def check_hierarchy(fut, samples=200, t_grid=None, seed=0):
    """Sweep the implication chain of the exponential convexity classes.

    Wherever the log-convex inequality holds at a sampled triple, the
    convex one must hold; wherever convex holds, so must quasi-convex
    (max form).  details carry the standalone worst violations of each
    leg for class inspection.

    Parameters
    ----------
    fut : FunctionUnderTest
    samples : int
    t_grid : array_like, optional
    seed : int

    Returns
    -------
    CertReport
    """

    def pair(u, v):
        e = _Pair(fut, u, v)
        return max(e.eu, e.ev), e.hierarchy

    return _sweep(fut.domain_sampler, samples, seed, pair, t_grid, lambda low, high: {"log": -np.inf, **high})


def _interval_sampler(lo, hi):
    return lambda rng: rng.uniform(lo, hi, 1)


def _ball_sampler(dim, radius=2.0):
    return lambda rng: rng.uniform(-radius, radius, dim)


def builtin_functions():
    """Registry of ready-made FunctionUnderTest instances by id."""
    return {
        "quadratic": FunctionUnderTest(
            F=lambda y: float(y @ y),
            grad_F=lambda y: 2.0 * np.asarray(y, dtype=float),
            domain_sampler=_ball_sampler(3),
            p=2.0,
            mu=1.0,
        ),
        "affine": FunctionUnderTest(
            F=lambda y: float(np.sum(y)) + 1.0,
            grad_F=lambda y: np.ones(np.atleast_1d(y).size),
            domain_sampler=_ball_sampler(3),
            p=2.0,
            mu=0.0,
        ),
        "quartic": FunctionUnderTest(
            F=lambda y: float(y[0] ** 4),
            grad_F=lambda y: np.array([4.0 * y[0] ** 3]),
            domain_sampler=_interval_sampler(-1.0, 1.0),
            p=2.0,
            mu=0.0,
        ),
        "sine": FunctionUnderTest(
            F=lambda y: float(np.sin(y[0])),
            grad_F=lambda y: np.array([np.cos(y[0])]),
            domain_sampler=_interval_sampler(0.0, np.pi),
            p=2.0,
            mu=0.1,
        ),
        "exp-square": FunctionUnderTest(
            F=lambda y: float(np.exp(y[0] ** 2)),
            g=lambda u: u * u,
            domain_sampler=_interval_sampler(0.0, 2.0),
            p=2.0,
            mu=0.0,
        ),
        "erf-sqrt": FunctionUnderTest(
            F=lambda y: float(erf(np.sqrt(y[0]))),
            domain_sampler=_interval_sampler(1e-6, 4.0),
            p=2.0,
            mu=0.0,
        ),
        "log1p-square": FunctionUnderTest(
            F=lambda y: float(np.log1p(y[0] ** 2)),
            domain_sampler=_interval_sampler(-1.0, 1.0),
            p=2.0,
            mu=0.0,
        ),
        "abs-sqrt": FunctionUnderTest(
            F=lambda y: float(np.sqrt(abs(y[0]))),
            domain_sampler=_interval_sampler(-1.0, 1.0),
            p=2.0,
            mu=0.0,
        ),
    }
