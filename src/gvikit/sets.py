"""Structured convex sets with exact projection and distance.

Every solver in the toolkit evaluates projections onto one of the set
variants below.  All projections are exact, never iterative QP solves:
closed forms for the plain sets, and for a base cut by a hyperplane a
search on the one dual multiplier, over the sorted kinks for a box and by
regula falsi for a simplex, after a closed-form feasibility test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSetError, UnsupportedSetError

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
    with phi(theta) = a.x(theta) - b piecewise linear and nonincreasing in
    theta.  The range of a.x over the base is known in closed form, so a
    hyperplane that misses the base is rejected before any search, and one
    that only touches it gives the projection onto the touching face.  For
    a Box or NonnegOrthant base the kinks of phi are where a coordinate
    meets a bound: a binary search over the sorted kinks finds the linear
    piece that holds the root, and one linear equation gives it.  For a
    Simplex base, Illinois regula falsi searches the multiplier between
    theta = 0 and the theta beyond which x(theta) lies on the face where
    a.x is extreme.
    With an anchor the hyperplane is ``{x : a.(x - anchor) = b}`` and phi
    is evaluated in that form, so a small offset b is not rounded away
    against a large a.anchor.

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
        x(theta*).  Over a Box or NonnegOrthant, theta* solves phi = 0 on
        its linear piece, and no ``project`` call is made.  Over a Simplex
        the search stops when phi is exactly zero or no float lies strictly
        inside the bracket, and returns the end with the smaller |phi|: the
        sign change decides, not the size of phi, because a tiny |phi| does
        not imply a tiny step when the normal is nearly orthogonal to the
        active face.

    Raises
    ------
    InfeasibleSetError
        If the normal is zero, or b lies outside the range of
        a.(x - anchor) over the base, i.e. the hyperplane misses the base set.
    """
    check_intersection_base(base)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.any(a != 0):
        raise InfeasibleSetError("hyperplane normal is zero")
    ref = np.zeros_like(z) if anchor is None else np.asarray(anchor, dtype=float)
    b = float(b)
    if isinstance(base, Simplex):
        return _cut_simplex(base, a, b, z, ref)
    if isinstance(base, Box):
        lo, hi = base.lo, base.hi
    else:
        lo, hi = np.zeros_like(z), np.full_like(z, np.inf)
    return _cut_box(lo, hi, a, b, z, ref)


def _on_face(x, b, end, size):
    # b reaches or passes ``end``, an end of the range of a.(x - anchor) over
    # the base, and x is the nearest point of the face that attains it.  The
    # cut meets the base only if b equals that end to within the rounding of
    # the sum that gave it, whose terms have magnitudes summing to ``size``.
    if abs(b - end) <= 4.0 * np.finfo(float).eps * x.size * (size + abs(b)):
        return x
    raise InfeasibleSetError("hyperplane does not meet the base set")


def _cut_box(lo, hi, a, b, z, ref):
    # Coordinate i with a_i != 0 is free, x_i = z_i - theta*a_i, between its
    # kinks (z_i - hi_i)/a_i and (z_i - lo_i)/a_i, and at a bound outside.
    # Only those coordinates enter the range, so no 0*inf arises.
    nz = a != 0
    an = a[nz]
    ends = np.stack((an * (lo - ref)[nz], an * (hi - ref)[nz]))
    low_terms, high_terms = ends.min(axis=0), ends.max(axis=0)
    low, high = float(np.sum(low_terms)), float(np.sum(high_terms))
    if not low < b < high:
        up, terms = (a, high_terms) if b >= high else (-a, low_terms)
        face = np.where(up > 0, hi, np.where(up < 0, lo, np.clip(z, lo, hi)))
        return _on_face(face, b, float(np.sum(terms)), float(np.sum(np.abs(terms))))

    cuts = np.stack(((z - hi)[nz] / an, (z - lo)[nz] / an))
    enter, leave = cuts.min(axis=0), cuts.max(axis=0)
    kinks = np.concatenate((enter, leave))
    # theta = 0 joins the kinks so that the root's piece has a finite end.
    kinks = np.sort(np.append(kinks[np.isfinite(kinks)], 0.0))

    def phi(theta):
        x = np.clip(z - theta * a, lo, hi)
        return float(a @ (x - ref)) - b, x

    # Adjacent kinks i < j with phi > 0 at i and phi < 0 at j; the ends of
    # the list stand for -inf and +inf, where phi is high - b and low - b.
    i, j = -1, kinks.size
    f_left = f_right = 0.0
    while j - i > 1:
        m = (i + j) // 2
        f, x = phi(kinks[m])
        if f == 0.0:
            return x
        if f > 0:
            i, f_left = m, f
        else:
            j, f_right = m, f
    left = kinks[i] if i >= 0 else -np.inf
    right = kinks[j] if j < kinks.size else np.inf
    free = (enter <= left) & (leave >= right)
    slope = float(an[free] @ an[free])
    if slope == 0.0:  # b is within rounding of a face
        return phi(left if i >= 0 else right)[1]
    # phi is linear on [left, right] with this slope.  The step from the
    # finite end carries the rounding of phi there, which can be far larger
    # than at the root, so one more step is taken from where it lands.
    theta = min(max(left + f_left / slope if i >= 0 else right + f_right / slope, left), right)
    f, _ = phi(theta)
    return phi(min(max(theta + f / slope, left), right))[1]


def _cut_simplex(base, a, b, z, ref):
    total, shift = base.total, float(a @ ref)
    top, bottom = total * float(a.max()) - shift, total * float(a.min()) - shift
    if not bottom < b < top:
        extreme = float(a.max() if b >= top else a.min())
        x = np.zeros_like(z)
        x[a == extreme] = project(base, z[a == extreme])
        size = total * abs(extreme) + float(np.abs(a) @ np.abs(ref))
        return _on_face(x, b, total * extreme - shift, size)

    # On the simplex a.x = (a - c).x + c*total, and shifting a by a multiple
    # of the ones vector leaves x(theta) unchanged; the search runs on the
    # centred normal so that a normal nearly parallel to ones keeps its digits.
    c = 0.5 * (float(a.max()) + float(a.min()))
    w = a - c
    offset = b - c * (total - float(np.sum(ref)))

    def phi(theta):
        x = project(base, z - theta * w)
        return float(w @ (x - ref)) - offset, x

    # Once theta * (a_max - a_i) exceeds the gap z_max - z_i by the total,
    # coordinate i drops out of the support: beyond these ends x(theta)
    # lies on the face where a.x is largest (low theta) or smallest.
    def support_end(extreme):
        on = a == extreme
        return (np.max(z[on]) - z[~on] - total) / (extreme - a[~on])

    # theta = 0 is the plain projection, often near the cut; it closes one
    # side of the bracket and the face beyond the root closes the other.
    f0, x0 = phi(0.0)
    if f0 == 0.0:
        return x0
    end = float(np.max(support_end(a.min())) if f0 > 0 else np.min(support_end(a.max())))
    f1, x1 = phi(end)
    if f1 == 0.0 or (f1 > 0) == (f0 > 0):
        return x1  # b is within rounding of that face
    ends = [(0.0, f0, x0), (end, f1, x1)]
    if f0 < 0:
        ends.reverse()
    (lo, f_lo, x_lo), (hi, f_hi, x_hi) = ends
    # Illinois: halve the secant weight of an end that is kept twice running.
    g_lo, g_hi, kept = f_lo, f_hi, 0
    while True:
        # The secant point, kept at least one float inside the bracket.
        inner_lo, inner_hi = float(np.nextafter(lo, hi)), float(np.nextafter(hi, lo))
        if inner_lo > inner_hi:
            break
        theta = min(max(hi - g_hi * (hi - lo) / (g_hi - g_lo), inner_lo), inner_hi)
        f, x = phi(theta)
        if f == 0.0:
            return x
        if f > 0:
            lo, f_lo, x_lo, g_lo = theta, f, x, f
            g_hi *= 0.5 if kept > 0 else 1.0
            kept = 1
        else:
            hi, f_hi, x_hi, g_hi = theta, f, x, f
            g_lo *= 0.5 if kept < 0 else 1.0
            kept = -1
    return x_lo if f_lo <= -f_hi else x_hi


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
