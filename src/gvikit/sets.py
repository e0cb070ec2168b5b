"""Structured convex sets with exact projection and distance.

Every solver in the toolkit evaluates projections onto one of the set
variants below.  All projections are exact (closed form or a single
scalar dual search), never iterative QP solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSetError, UnsupportedSetError

# Dual-multiplier search controls for hyperplane intersections.
_BRACKET_LIMIT = 1e18


@dataclass(frozen=True)
class ConvexSet:
    """Base class for the supported convex-set variants."""


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    """All of R^n; projection is the identity."""


@dataclass(frozen=True)
class NonnegOrthant(ConvexSet):
    """{x : x >= 0} componentwise."""


@dataclass(frozen=True)
class Box(ConvexSet):
    """{x : lo <= x <= hi} componentwise; bounds may be infinite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if not np.all(lo <= hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class Simplex(ConvexSet):
    """{x >= 0, sum(x) = total}."""

    total: float = 1.0

    def __post_init__(self):
        if not self.total > 0:
            raise ValueError("simplex total must be positive")


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """{x : a.x <= b}."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not np.any(a != 0):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class Hyperplane(ConvexSet):
    """{x : a.x = b}."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not np.any(a != 0):
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class IntersectionWithHyperplane(ConvexSet):
    """base set intersected with {x : a.x = b}; base must be Box, NonnegOrthant, or Simplex."""

    base: ConvexSet
    a: np.ndarray
    b: float

    def __post_init__(self):
        if not isinstance(self.base, INTERSECTION_BASES):
            raise ValueError("intersection base must be Box, NonnegOrthant, or Simplex")
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not np.any(a != 0):
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))


# The base sets project_intersection supports.
INTERSECTION_BASES = (Box, NonnegOrthant, Simplex)


def check_intersection_base(base):
    """Raise UnsupportedSetError unless ``project_intersection`` supports ``base``."""
    if not isinstance(base, INTERSECTION_BASES):
        names = ", ".join(cls.__name__ for cls in INTERSECTION_BASES)
        raise UnsupportedSetError(f"intersection base must be one of {names}, not {type(base).__name__}")


def _project_simplex(z, total):
    # Sort-based exact projection onto {x >= 0, sum(x) = total}.  The
    # feasibility test is arranged so the k=1 entry reduces to total > 0
    # exactly in floating point; the naive u - (css - total)/k form loses
    # it to cancellation when the entries are huge.
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, z.size + 1)
    feasible = (u * k - css) + total > 0
    idx = np.nonzero(feasible)[0][-1]
    theta = (css[idx] - total) / (idx + 1.0)
    return np.maximum(z - theta, 0.0)


def project(cset, z):
    """Project a point onto a convex set.

    Parameters
    ----------
    cset : ConvexSet
        Target set.
    z : array_like
        Point to project.

    Returns
    -------
    ndarray
        The unique minimizer of ``||x - z||`` over the set.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if isinstance(cset, WholeSpace):
        return z.copy()
    if isinstance(cset, NonnegOrthant):
        return np.maximum(z, 0.0)
    if isinstance(cset, Box):
        return np.clip(z, cset.lo, cset.hi)
    if isinstance(cset, Simplex):
        return _project_simplex(z, cset.total)
    if isinstance(cset, Halfspace):
        excess = float(cset.a @ z) - cset.b
        if excess <= 0:
            return z.copy()
        return z - (excess / float(cset.a @ cset.a)) * cset.a
    if isinstance(cset, Hyperplane):
        excess = float(cset.a @ z) - cset.b
        return z - (excess / float(cset.a @ cset.a)) * cset.a
    if isinstance(cset, IntersectionWithHyperplane):
        return project_intersection(cset.base, cset.a, cset.b, z)
    raise UnsupportedSetError(f"unknown set variant {type(cset).__name__}")


def distance(cset, z):
    """Euclidean distance from a point to a convex set.

    Parameters
    ----------
    cset : ConvexSet
    z : array_like

    Returns
    -------
    float
        ``||z - project(cset, z)||``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return float(np.linalg.norm(z - project(cset, z)))


def project_intersection(base, a, b, z, anchor=None):
    """Project onto ``base`` intersected with the hyperplane ``{x : a.x = b}``.

    Uses the single dual multiplier: x(theta) = project(base, z - theta*a)
    with phi(theta) = a.x(theta) - b monotone nonincreasing in theta.  The
    root is located by bracket growth and bisection.  With an anchor the
    hyperplane is ``{x : a.(x - anchor) = b}`` and phi is evaluated in that
    form, so a small offset b is not rounded away against a large a.anchor.

    Parameters
    ----------
    base : ConvexSet
        One of Box, NonnegOrthant, Simplex.
    a : array_like
        Hyperplane normal.
    b : float
        Hyperplane offset.
    z : array_like
        Point to project.
    anchor : array_like, optional
        Point the hyperplane offset is measured from; none means the origin.

    Returns
    -------
    ndarray
        x(theta*) with theta* resolved to floating-point interval
        exhaustion.  The multiplier is bisected on its sign change rather
        than on the magnitude of phi: a tiny |phi| does not imply a tiny
        step when the normal is nearly orthogonal to the active face.

    Raises
    ------
    InfeasibleSetError
        If phi has no sign change within the bracket growth limit,
        i.e. the hyperplane misses the base set.
    """
    check_intersection_base(base)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.any(a != 0):
        raise InfeasibleSetError("hyperplane normal is zero")
    b = float(b)

    def phi(theta):
        x = project(base, z - theta * a)
        return float(a @ (x if anchor is None else x - anchor)) - b, x

    f0, x0 = phi(0.0)
    if f0 == 0.0:
        return x0

    # phi is nonincreasing: positive phi needs larger theta, negative smaller.
    scale = max(1.0, float(np.linalg.norm(z)) / max(float(a @ a), 1e-30))
    lo, hi = 0.0, 0.0
    step = scale
    while True:
        if f0 > 0:
            hi = step
            f_new, _ = phi(hi)
            if f_new <= 0:
                break
        else:
            lo = -step
            f_new, _ = phi(lo)
            if f_new >= 0:
                break
        step *= 2.0
        if step > _BRACKET_LIMIT:
            raise InfeasibleSetError("hyperplane does not meet the base set")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid, xmid = phi(mid)
        if fmid == 0.0:
            return xmid
        if fmid > 0:
            lo = mid
        else:
            hi = mid
    _, xmid = phi(0.5 * (lo + hi))
    return xmid


def contains(cset, z, tol=1e-10):
    """Check feasibility up to a distance tolerance.

    Parameters
    ----------
    cset : ConvexSet
    z : array_like
    tol : float

    Returns
    -------
    bool
        True when ``distance(cset, z) <= tol``.
    """
    return distance(cset, z) <= tol
