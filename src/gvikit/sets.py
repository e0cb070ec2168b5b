"""Structured convex sets with exact projection and distance.

Every solver in the toolkit evaluates projections onto one of the set
variants below.  All projections are exact, never iterative QP solves:
closed forms for the plain sets, and for a base cut by a hyperplane one
safeguarded Newton search on the single dual multiplier, after a
closed-form feasibility test.

The part of a cut that depends on the set alone is built once, when
``IntersectionWithHyperplane`` is made, and each ``project`` computes
only what depends on z; ``project_intersection`` builds both parts on
every call, as the anchored ``dp-optimal`` corrector, whose cut changes
at every step, needs.  The sets keep read-only copies of their normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InfeasibleSetError, UnsupportedSetError

@dataclass(frozen=True)
class ConvexSet:
    """Base class for the supported convex-set variants.

    A set pickles and copies as its constructor call, so an unpickled set
    builds its own read-only normal and prepared cut again.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    """All of R^n; projection is the identity."""


@dataclass(frozen=True)
class NonnegOrthant(ConvexSet):
    """{x : x >= 0} componentwise."""


@dataclass(frozen=True)
class Box(ConvexSet):
    """{x : lo <= x <= hi} componentwise; bounds may be infinite.

    A cut of this box reads the bounds when it is built, so write into
    them only before building an ``IntersectionWithHyperplane`` on it.
    """

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


def _set_normal(cset, kind):
    # A private read-only copy: a later write into the caller's array cannot
    # move ``cset.a`` away from what was built from it.
    a = np.array(cset.a, dtype=float, ndmin=1)
    a.flags.writeable = False
    if not np.any(a != 0):
        raise ValueError(f"{kind} normal must be nonzero")
    object.__setattr__(cset, "a", a)
    object.__setattr__(cset, "b", float(cset.b))


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """{x : a.x <= b}; ``a`` is kept as a read-only copy."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        _set_normal(self, "halfspace")


@dataclass(frozen=True)
class Hyperplane(ConvexSet):
    """{x : a.x = b}; ``a`` is kept as a read-only copy."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        _set_normal(self, "hyperplane")


@dataclass(frozen=True)
class IntersectionWithHyperplane(ConvexSet):
    """base set intersected with {x : a.x = b}; base must be Box, NonnegOrthant, or Simplex.

    The parts of the projection that depend on the set alone are built
    here, once: the range of a.x over the base (a hyperplane that misses
    the base still builds; each ``project`` onto it raises
    ``InfeasibleSetError``), and for a Box or NonnegOrthant the kept
    coordinates, their bounds and a_i^2, for a Simplex the extremes of a
    and the centred normal.  ``project`` computes the kinks for its z and
    runs the Newton trials; it returns the bytes ``project_intersection``
    returns.  ``a`` is kept as a read-only copy, and a Box base's bounds
    are read here, so write into them only before building the set.
    """

    base: ConvexSet
    a: np.ndarray
    b: float

    def __post_init__(self):
        check_intersection_base(self.base)
        _set_normal(self, "hyperplane")
        object.__setattr__(self, "_cut", _build_cut(self.base, self.a, self.b, None))


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
    css = u.cumsum()
    k = np.arange(1.0, z.size + 1)
    feasible = (u * k - css) + total > 0
    idx = feasible.nonzero()[0][-1]
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
        # In place: the values of np.clip for lo <= hi, without its wrapper or
        # a second temporary.
        x = np.maximum(z, cset.lo)
        np.minimum(x, cset.hi, out=x)
        return x
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
        return cset._cut(z)
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
    that only touches it gives the projection onto the touching face.
    Every base then runs one safeguarded Newton search from theta = 0
    (Cominetti, Mascarenhas & Silva 2014) along the linear pieces of phi,
    of slope -phi' = the sum of a_i^2 over the free coordinates of a Box or
    NonnegOrthant, or of (a_i - mean_S a)^2 over the support S in a
    Simplex.  A step that leaves the sign bracket bisects it, or jumps to
    the outermost kink while the bracket is still open; that far end is
    computed only then.  A Simplex trial first tries the support of the
    last sorted projection, and keeps the point when exactly that support
    stays positive (the projection's KKT signs); otherwise it sorts.
    With an anchor the hyperplane is ``{x : a.(x - anchor) = b}`` and phi
    is evaluated in that form, so a small offset b is not rounded away
    against a large a.anchor.

    What depends on (base, a, b, anchor) alone (the range of a.(x -
    anchor), and the kept coordinates a_i != 0 with their bounds and a_i^2,
    or a Simplex's extremes of a and centred normal) is built on every
    call here, as the anchored ``dp-optimal`` corrector, whose a, b and
    anchor change at every step, needs; ``IntersectionWithHyperplane``
    builds it once per set.  Per z come the kinks and the Newton trials.

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
        x(theta*).  The search stops when phi is exactly zero, when a
        Newton step stayed on its piece (then one more step sheds the
        rounding carried from its start), or when no float lies strictly
        inside the bracket (then the end with the smaller |phi|): never on
        the size of phi, because a tiny |phi| does not imply a tiny step
        when the normal is nearly orthogonal to the active face.  Over a
        Box or NonnegOrthant no ``project`` call is made; over a Simplex
        only the trials that leave the last support call it.

    Raises
    ------
    InfeasibleSetError
        If the normal is zero, or b lies outside the range of
        a.(x - anchor) over the base, i.e. the hyperplane misses the base set.
    """
    check_intersection_base(base)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if not np.any(a != 0):
        raise InfeasibleSetError("hyperplane normal is zero")
    return _build_cut(base, a, float(b), anchor)(np.atleast_1d(np.asarray(z, dtype=float)))


def _build_cut(base, a, b, anchor):
    # The projection onto the base cut by {x : a.(x - anchor) = b}, as a
    # callable of z alone.  Without an anchor no anchor arithmetic is made:
    # x - 0 is x, bit for bit.  A b outside the range is kept, not raised
    # here, so that a set whose hyperplane misses its base still builds and
    # each projection onto it raises.
    ref = None if anchor is None else np.asarray(anchor, dtype=float)
    if isinstance(base, Simplex):
        return _SimplexCut(base, a, b, ref)
    lo, hi = (base.lo, base.hi) if isinstance(base, Box) else (0.0, np.inf)
    if np.shape(lo) != a.shape:
        # Bounds of size 1 stand for every coordinate, and the kept ones are gathered.
        lo, hi = np.broadcast_to(lo, a.shape), np.broadcast_to(hi, a.shape)
    return _BoxCut(lo, hi, a, b, ref)


def _on_face(x, b, end, size):
    # b reaches or passes ``end``, an end of the range of a.(x - anchor) over
    # the base, and x is the nearest point of the face that attains it.  The
    # cut meets the base only if b equals that end to within the rounding of
    # the sum that gave it, whose terms have magnitudes summing to ``size``.
    if abs(b - end) <= 4.0 * np.finfo(float).eps * x.size * (size + abs(b)):
        return x
    raise InfeasibleSetError("hyperplane does not meet the base set")


class _BoxCut:
    # Coordinate i with a_i != 0 is kept: it is free, x_i = z_i - theta*a_i,
    # between its kinks (z_i - hi_i)/a_i and (z_i - lo_i)/a_i, and at a bound
    # outside.  Only kept coordinates enter the range, so no 0*inf arises.

    def __init__(self, lo, hi, a, b, ref):
        nz = a != 0
        keep = slice(None) if nz.all() else nz
        an = a[keep]
        to_lo = an * (lo if ref is None else lo - ref)[keep]
        to_hi = an * (hi if ref is None else hi - ref)[keep]
        low_terms, high_terms = np.minimum(to_lo, to_hi), np.maximum(to_lo, to_hi)
        low, high = float(np.sum(low_terms)), float(np.sum(high_terms))
        self.face = None  # (sign of the face's direction, its end of the range, the end's size)
        if not low < b < high:
            up, terms = (a, high_terms) if b >= high else (-a, low_terms)
            self.face = (up, float(np.sum(terms)), float(np.sum(np.abs(terms))))
        self.lo, self.hi, self.a, self.b, self.ref = lo, hi, a, b, ref
        self.keep, self.an, self.lo_kept, self.hi_kept, self.squares = keep, an, lo[keep], hi[keep], an * an

    def __call__(self, z):
        lo, hi, a, b, ref, squares = self.lo, self.hi, self.a, self.b, self.ref, self.squares
        if self.face is not None:
            up, end, size = self.face
            face = np.where(up > 0, hi, np.where(up < 0, lo, np.clip(z, lo, hi)))
            return _on_face(face, b, end, size)

        zk = z[self.keep]
        at_hi, at_lo = (zk - self.hi_kept) / self.an, (zk - self.lo_kept) / self.an
        first, last = np.minimum(at_hi, at_lo), np.maximum(at_hi, at_lo)

        def phi(theta):
            # np.minimum(np.maximum(.)) is np.clip for lo <= hi, without its wrapper.
            x = np.minimum(np.maximum(z - theta * a, lo), hi)
            return float(a @ (x if ref is None else x - ref)) - b, x

        # The pattern is how many of its two kinks lie behind theta on the given
        # side; a coordinate is free there if it has passed exactly one.
        def pattern(theta, x, right):
            past = (first <= theta, last <= theta) if right else (first < theta, last < theta)
            return np.add(*past, dtype=np.int8)

        def slope(behind):
            return float(squares @ (behind == 1))

        def far(right):
            kinks = np.concatenate((first, last))
            finite = kinks[np.isfinite(kinks)]
            return float(finite.max(initial=0.0) if right else finite.min(initial=0.0))

        return _newton_cut(phi, pattern, slope, far)


class _SimplexCut:
    # On the simplex a.x = (a - c).x + c*total, and shifting a by a multiple
    # of the ones vector leaves x(theta) unchanged; the search runs on the
    # centred normal so that a normal nearly parallel to ones keeps its digits.

    def __init__(self, base, a, b, ref):
        total, shift = base.total, 0.0 if ref is None else float(a @ ref)
        a_max, a_min = float(a.max()), float(a.min())
        top, bottom = total * a_max - shift, total * a_min - shift
        self.face = None  # (the coordinates where a is extreme, that end of the range, the end's size)
        if not bottom < b < top:
            extreme = a_max if b >= top else a_min
            size = total * abs(extreme) + (0.0 if ref is None else float(np.abs(a) @ np.abs(ref)))
            self.face = (a == extreme, total * extreme - shift, size)
        c = 0.5 * (a_max + a_min)
        self.w = a - c
        self.offset = b - c * (total - (0.0 if ref is None else float(np.sum(ref))))
        self.base, self.a, self.a_max, self.a_min, self.b, self.ref = base, a, a_max, a_min, b, ref

    def __call__(self, z):
        base, a, w, ref, offset = self.base, self.a, self.w, self.ref, self.offset
        total = base.total
        if self.face is not None:
            on, end, size = self.face
            x = np.zeros_like(z)
            x[on] = project(base, z[on])
            return _on_face(x, self.b, end, size)

        known = None  # (support S, |S|, sum_S z, sum_S w, slope on S) of the last sort
        latest = None  # the point of the last trial, which lies on the known support

        # On a support S, x_i = z_i - theta*w_i - tau(theta) with the shift tau
        # = (sum_S z - theta*sum_S w - total)/|S| keeping the total, so x_i moves
        # at mean_S(w) - w_i.  A trial first tries the last support: x is the
        # projection exactly when its positive coordinates are S (the KKT
        # conditions).  Otherwise the sort-based projection finds the support.
        def phi(theta):
            nonlocal known, latest
            v = z - theta * w
            if known is not None:
                support, size, z_sum, w_sum, _ = known
                x = np.maximum(v - (z_sum - theta * w_sum - total) / size, 0.0)
            if known is None or not np.array_equal(x > 0, support):
                x = project(base, v)
                support = x > 0
                ws = w[support]
                d = ws - np.mean(ws)
                known = (support, ws.size, float(np.sum(z[support])), float(np.sum(ws)), float(d @ d))
            latest = x
            return float(w @ (x if ref is None else x - ref)) - offset, x

        # _newton_cut asks for the pattern only of the x that phi returned last,
        # whose support and slope are the known ones.
        def pattern(theta, x, right):
            assert x is latest, "pattern is asked about a point other than the last trial"
            return known[0]

        def slope(support):
            assert support is known[0], "slope is asked about a support other than the last one"
            return known[4]

        # Once theta * (a_max - a_i) exceeds the gap z_max - z_i by the total,
        # coordinate i drops out of the support: beyond these ends x(theta)
        # lies on the face where a.x is largest (low theta) or smallest.
        def far(right):
            extreme = self.a_min if right else self.a_max
            on = a == extreme
            ends = (np.max(z[on]) - z[~on] - total) / (extreme - a[~on])
            return float(np.max(ends) if right else np.min(ends))

        return _newton_cut(phi, pattern, slope, far)


def _newton_cut(phi, pattern, slope, far):
    # The root of phi, nonincreasing and piecewise linear, by Newton steps
    # from theta = 0.  phi(theta) gives (phi, x(theta)); pattern(theta, x,
    # right) gives the active pattern of the linear piece on that side of
    # theta, and slope(pattern) its slope -phi'; phi has no kink beyond
    # far(right) on that side, which is only asked for while the bracket is
    # open there.  Each trial lies strictly inside the sign bracket (lo, hi)
    # and replaces one end, leaving fewer floats inside, so the search ends
    # without a cap.
    theta, lo, hi, ends, run = 0.0, -np.inf, np.inf, {}, None
    while True:
        f, x = phi(theta)
        if f == 0.0:
            return x
        right = f > 0
        lo, hi = (theta, hi) if right else (lo, theta)
        ends[right] = (f, x)
        if run is not None and np.array_equal(pattern(theta, x, not run[2]), run[1]):
            # The step stayed on its piece, so it missed the root only by
            # the rounding of phi where it started; one more step sheds that.
            return phi(min(max(theta + f / run[0], lo), hi))[1]
        inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
        if inner_lo > inner_hi:
            break
        active = pattern(theta, x, right)
        rate = slope(active)
        run = (rate, active, right)
        step = theta + f / rate if rate > 0 else np.nan
        if not lo < step < hi:
            # Off the bracket: bisect it once both ends are known, else jump
            # to the far end on the root's side.
            run = None
            step = 0.5 * lo + 0.5 * hi if math.isfinite(lo) and math.isfinite(hi) else far(right)
            if not lo < step < hi:
                break  # phi is flat on the root's side: b is within rounding of a face
        theta = min(max(step, inner_lo), inner_hi)
    return min(ends.values(), key=lambda end: abs(end[0]))[1]


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
