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
from functools import partial
from typing import Callable, Optional

import numpy as np

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
    and verdict "pass" when every checked triple's violation stays within
    1e-9 times max(1, that triple's value scale).  details carries
    check-specific extras (per-leg violations, fitted moduli).
    """

    checked_count: int
    worst_violation: float
    witness: tuple
    verdict: str
    details: Optional[dict] = None

    @property
    def passed(self):
        return self.verdict == "pass"


_quiet = np.errstate(divide="ignore", over="ignore", invalid="ignore")  # the sweep masks out what overflows


def _pow(x, p):
    """x ** p elementwise by Python's float power (numpy's may differ in the last bit), inf where it overflows."""
    return np.frompyfunc(_pow_or_inf, 2, 1)(x, p).astype(float)


def _pow_or_inf(x, p):
    try:
        return pow(x, p)
    except OverflowError:
        return math.inf


def _growth(coef, power):
    """coef * power, exactly 0 where coef is 0 even if the power overflowed to inf."""
    return np.where(coef == 0.0, 0.0, coef * power)


def _rowdot(a, b):
    """Dot product of each row of a with the same row of b, each as one a @ b.

    On rows of width 1 that is the single product; the BLAS dot adds it to
    0.0, which turns a -0.0 product into 0.0, and so does the + 0.0 here.
    """
    if a.shape[1] == 1:
        return (a * b)[:, 0] + 0.0
    return np.array([x @ y for x, y in zip(a, b)])


def _stack(points):
    """The sampled points as the rows of one float array, each row as np.atleast_1d gives it."""
    rows = np.array(points, dtype=float)
    return rows[:, None] if rows.ndim == 1 else rows


def _each(fn, ys, one):
    """one(y) for each row y of ys, stacked, or one fn.rows(ys) call when fn has rows."""
    rows = getattr(fn, "rows", None)
    return np.array([one(y) for y in ys]) if rows is None else rows(ys)


def _ends(fut, pairs):
    """g-images (one row per pair), F values and gaps ||g(v) - g(u)|| of the pairs."""
    us, vs = (_stack(ends) for ends in zip(*pairs))
    yu, yv = (ys if fut.g is None else _each(fut.g, ys, fut.g_image) for ys in (us, vs))
    Fu, Fv = (_each(fut.F, ys, fut.value) for ys in (yu, yv))
    return yu, yv, Fu, Fv, np.sqrt(_rowdot(yv - yu, yv - yu))


def _blend(fut, yu, yv, t, scale):
    """F at yu + t(yv - yu) per pair (rows) and t (columns) where the pair's scale is finite, else NaN."""
    points = yu[:, None] + t[:, None] * (yv - yu)[:, None]
    values = np.full(points.shape[:2], np.nan)
    finite = np.isfinite(scale)
    kept = points[finite]
    values[finite] = _each(fut.F, kept.reshape(-1, kept.shape[2]), fut.value).reshape(kept.shape[:2])
    return values


def _gradients(fut, y, scale):
    """The gradient at each row of y whose pair's scale is finite, else NaN."""
    grads = np.full(y.shape, np.nan)
    finite = np.isfinite(scale)
    if finite.any():  # a stack of no one-point gradients has no columns
        grads[finite] = _each(fut.grad_F, y[finite], fut.gradient)
    return grads


@_quiet
def _hos(fut, pairs, t):
    """Higher order strong convexity: (scale, violation, legs) at pairs × t."""
    yu, yv, Fu, Fv, gap = _ends(fut, pairs)
    scale = np.maximum(abs(Fu), abs(Fv))
    p, s = fut.p, 1.0 - t
    growth = _growth(fut.mu * (_pow(t, p) * s + t * _pow(s, p)), _pow(gap, p)[:, None])
    bound = s * Fu[:, None] + t * Fv[:, None] - growth
    return scale, _blend(fut, yu, yv, t, scale) - bound, {}


@_quiet
def _gradient_char(fut, pairs, t=None):
    """The worse of the first-order and monotonicity violations, one per pair."""
    yu, yv, Fu, Fv, gap = _ends(fut, pairs)
    scale = np.maximum(abs(Fu), abs(Fv))
    grad_u, grad_v = (_gradients(fut, y, scale) for y in (yu, yv))
    power = _pow(gap, fut.p)
    lower = Fu + _rowdot(grad_u, yv - yu) + _growth(fut.mu, power) - Fv
    mono = _growth(2.0 * fut.mu, power) - _rowdot(grad_u - grad_v, yu - yv)
    return scale, np.maximum(lower, mono)[:, None], {}


@_quiet
def _parallelogram(p, mu, pairs, t=None):
    """Lower law per pair; the legs are its size and the modulus that makes it tight, if ||v-u||^p > 1e-12."""
    u, v = (_stack(ends) for ends in zip(*pairs))
    plus, gap, pu, pv = (_pow(np.sqrt(_rowdot(x, x)), p) for x in (u + v, v - u, u, v))
    rhs = _pow_or_inf(2.0, p - 1.0) * (pu + pv)
    viol = plus + _growth(mu, gap) - rhs
    quotient = np.where(gap > 1e-12, (rhs - plus) / gap, np.nan)
    return abs(rhs), viol[:, None], {"equality_violation": abs(viol)[:, None], "quotient": quotient[:, None]}


@_quiet
def _exp_convex(fut, pairs, t, strong, differential):
    """Exponential convexity: the curve leg at pairs × t, and the differential leg per pair if asked."""
    yu, yv, Fu, Fv, gap = _ends(fut, pairs)
    eu, ev = np.exp(Fu)[:, None], np.exp(Fv)[:, None]
    scale = np.maximum(eu, ev)[:, 0]
    mu = fut.mu if strong else 0.0
    gap_sq = _pow(gap, 2.0)[:, None]
    bound = (1.0 - t) * eu + t * ev - _growth(mu * t * (1.0 - t), gap_sq)
    viol = np.exp(_blend(fut, yu, yv, t, scale)) - bound
    legs = {"curve": viol}
    if differential:
        lhs = _rowdot(eu * _gradients(fut, yu, scale), yv - yu)[:, None] + _growth(mu, gap_sq)
        legs["differential"] = lhs - (ev - eu)
        viol = np.maximum(viol, legs["differential"])
    return scale, viol, legs


@_quiet
def _hierarchy(fut, pairs, t, tol=1e-12):
    """Implication violation and the convex, quasi and log legs at pairs × t."""
    yu, yv, Fu, Fv, _ = _ends(fut, pairs)
    eu, ev = np.exp(Fu)[:, None], np.exp(Fv)[:, None]
    scale = np.maximum(eu, ev)[:, 0]
    e_mid = np.exp(_blend(fut, yu, yv, t, scale))
    convex = e_mid - ((1.0 - t) * eu + t * ev)
    quasi = e_mid - scale[:, None]
    log = np.full(convex.shape, np.nan)
    both = (Fu > 0) & (Fv > 0)
    log[both] = e_mid[both] - _pow(eu[both], 1.0 - t) * _pow(ev[both], t)
    worst = np.where(log <= tol, convex, -np.inf)
    worst = np.where(convex <= tol, np.maximum(worst, quasi), worst)
    worst[np.isnan(e_mid)] = np.nan
    return scale, worst, {"convex": convex, "quasi": quasi, "log": log}


def _sweep(draw, samples, seed, inequality, t_grid=(None,), details=None):
    """The one sampling sweep: draw u, then v, for every sample, then judge all triples at once.

    inequality(pairs, t) gives, over pairs (rows) and t (columns), each
    pair's scale, set by its two ends, each triple's violation, NaN where
    it tests nothing, and the legs, NaN where absent.  A triple counts if
    its scale is finite and its violation is not NaN: an end whose F is
    NaN or whose e^F overflows tests nothing, and F is not evaluated
    between such ends, while an overflow at the blend point alone is an
    infinite violation.  A triple fails when its violation exceeds
    _BASE_TOL * max(1, scale).  The witness is the first worst triple in
    sample-major order.  t_grid=None is default_t_grid(); checks without t
    keep (None,).  details(low, high) gets each leg's range over the
    counted triples.
    """
    t_values = [None if t is None else float(t) for t in (default_t_grid() if t_grid is None else t_grid)]
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not t_values:
        raise ValueError("t_grid must hold at least one t")
    rng = np.random.default_rng(seed)
    pairs = [(draw(rng), draw(rng)) for _ in range(samples)]
    scale, viol, legs = inequality(pairs, np.array(t_values, dtype=float))
    counted = np.broadcast_to(np.isfinite(scale)[:, None] & ~np.isnan(viol), (samples, len(t_values)))
    count = int(counted.sum())
    if count == 0:
        raise NumericDomainError("F", "no sampled triple had finite values to check")
    failed = np.any(counted & (viol > _BASE_TOL * np.maximum(1.0, scale)[:, None]))
    masked = np.where(counted, viol, -np.inf)
    i, j = np.unravel_index(np.argmax(masked), masked.shape)
    worst = float(masked[i, j])
    witness = None if worst == -np.inf else (*pairs[i], t_values[j])
    low, high = {}, {}
    for leg, values in legs.items():
        values = np.where(counted, values, np.nan)
        if not np.isnan(values).all():
            low[leg], high[leg] = float(np.nanmin(values)), float(np.nanmax(values))
    return CertReport(count, worst, witness, "fail" if failed else "pass", details and details(low, high))


def hos_convex_violation(fut, u, v, t):
    """LHS - RHS of the higher order strong convexity inequality."""
    return float(_hos(fut, [(u, v)], np.array([t], dtype=float))[1][0, 0])


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
    return _sweep(fut.domain_sampler, samples, seed, partial(_hos, fut), t_grid)


def gradient_char_violation(fut, u, v):
    """Worst of the first-order and monotonicity violations at a pair."""
    return float(_gradient_char(fut, [(u, v)])[1][0, 0])


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
    return _sweep(fut.domain_sampler, samples, seed, partial(_gradient_char, fut))


def parallelogram_violation(p, mu, u, v):
    """Signed lower-law violation ||u+v||^p + mu||v-u||^p - 2^{p-1}(...)."""
    return float(_parallelogram(p, mu, [(u, v)])[1][0, 0])


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

    def details(low, high):
        return {"mu_lower": low.get("quotient", np.nan), "mu_upper": high.get("quotient", np.nan),
                "equality_violation": high["equality_violation"]}

    return _sweep(lambda rng: rng.standard_normal(dim), samples, seed, partial(_parallelogram, p, mu), details=details)


def exp_convex_violation(fut, u, v, t, strong=False):
    """LHS - RHS of the (strong) exponential convexity inequality."""
    return float(_exp_convex(fut, [(u, v)], np.array([t], dtype=float), strong, False)[2]["curve"][0, 0])


def exp_gradient_violation(fut, u, v, strong=False):
    """LHS - RHS of the differential exponential convexity bound."""
    return float(_exp_convex(fut, [(u, v)], np.empty(0), strong, True)[2]["differential"][0, 0])


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
    inequality = partial(_exp_convex, fut, strong=strong, differential=fut.grad_F is not None)
    return _sweep(fut.domain_sampler, samples, seed, inequality, t_grid, lambda low, high: high)


def hierarchy_violation(fut, u, v, t, tol=1e-12):
    """Implication violation along log-convex => convex => quasi-convex.

    Returns the worst failed conclusion at the triple: the convex excess
    where the log-convex inequality held, and the quasi-convex excess
    where the convex inequality held.  The log leg is only consulted
    where F > 0 at both ends.
    """
    return float(_hierarchy(fut, [(u, v)], np.array([t], dtype=float), tol)[1][0, 0])


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
    return _sweep(fut.domain_sampler, samples, seed, partial(_hierarchy, fut), t_grid,
                  lambda low, high: {"log": -np.inf, **high})


def _on_rows(point, rows):
    """point, a map of one point, given ``rows``: its values at each row of an (m, dim) array."""
    point.rows = rows
    return point


def _first_powers(ys, p):
    """y[0] ** p for each row y, each by numpy's scalar power as on one point (the array power may round differently)."""
    return np.array([y ** p for y in ys[:, 0]])


def builtin_functions():
    """Registry of ready-made FunctionUnderTest instances by id.

    Each builtin's F, grad_F and g is a map of one point that also has
    ``rows``, which maps an (m, dim) array to its m values, bit for bit
    the values on each row; the sweeps call it once per batch.  erf-sqrt's
    F (``math.erf``, which numpy lacks) is evaluated point by point, as a
    user's F is.
    """
    return {
        "quadratic": FunctionUnderTest(
            # Each row by its own y @ y: a reduction along the rows rounds differently.
            F=_on_rows(lambda y: float(y @ y), lambda ys: np.array([y @ y for y in ys])),
            grad_F=_on_rows(lambda y: 2.0 * np.asarray(y, dtype=float), lambda ys: 2.0 * ys),
            domain_sampler=lambda rng: rng.uniform(-2.0, 2.0, 3),
            mu=1.0,
        ),
        "affine": FunctionUnderTest(
            F=_on_rows(lambda y: float(np.sum(y)) + 1.0, lambda ys: np.sum(ys, axis=1) + 1.0),
            grad_F=_on_rows(lambda y: np.ones(np.atleast_1d(y).size), lambda ys: np.ones(ys.shape)),
            domain_sampler=lambda rng: rng.uniform(-2.0, 2.0, 3),
        ),
        "quartic": FunctionUnderTest(
            F=_on_rows(lambda y: float(y[0] ** 4), lambda ys: _first_powers(ys, 4)),
            grad_F=_on_rows(lambda y: np.array([4.0 * y[0] ** 3]), lambda ys: 4.0 * _first_powers(ys, 3)[:, None]),
            domain_sampler=lambda rng: rng.uniform(-1.0, 1.0, 1),
        ),
        "sine": FunctionUnderTest(
            F=_on_rows(lambda y: float(np.sin(y[0])), lambda ys: np.sin(ys[:, 0])),
            grad_F=_on_rows(lambda y: np.array([np.cos(y[0])]), lambda ys: np.cos(ys[:, :1])),
            domain_sampler=lambda rng: rng.uniform(0.0, np.pi, 1),
            mu=0.1,
        ),
        "exp-square": FunctionUnderTest(
            F=_on_rows(lambda y: float(np.exp(y[0] ** 2)), lambda ys: np.exp(_first_powers(ys, 2))),
            g=_on_rows(lambda u: u * u, lambda us: us * us),
            domain_sampler=lambda rng: rng.uniform(0.0, 2.0, 1),
        ),
        "erf-sqrt": FunctionUnderTest(
            F=lambda y: math.erf(math.sqrt(y[0])),
            domain_sampler=lambda rng: rng.uniform(1e-6, 4.0, 1),
        ),
        "log1p-square": FunctionUnderTest(
            F=_on_rows(lambda y: float(np.log1p(y[0] ** 2)), lambda ys: np.log1p(_first_powers(ys, 2))),
            domain_sampler=lambda rng: rng.uniform(-1.0, 1.0, 1),
        ),
        "abs-sqrt": FunctionUnderTest(
            F=_on_rows(lambda y: float(np.sqrt(abs(y[0]))), lambda ys: np.sqrt(np.abs(ys[:, 0]))),
            domain_sampler=lambda rng: rng.uniform(-1.0, 1.0, 1),
        ),
    }
