"""The projection onto a base set cut by a hyperplane: exactness and infeasibility."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gvikit.sets
from gvikit.errors import InfeasibleSetError
from gvikit.sets import Box, IntersectionWithHyperplane, NonnegOrthant, Simplex, project, project_intersection
from oracles import kkt_cut_bruteforce, kkt_cut_residual


def _range(base, a, ref):
    # min and max of a.(x - ref) over the base, written out per base.
    if isinstance(base, Simplex):
        return base.total * a.min() - a @ ref, base.total * a.max() - a @ ref
    lo, hi = (base.lo, base.hi) if isinstance(base, Box) else (np.zeros(a.size), np.full(a.size, np.inf))
    low = high = 0.0
    for ai, l, h, r in zip(a, lo, hi, ref):
        if ai != 0:
            low += min(ai * (l - r), ai * (h - r))
            high += max(ai * (l - r), ai * (h - r))
    return low, high


def _member(base, rng, n):
    # A random point of the base.
    if isinstance(base, Simplex):
        return base.total * rng.dirichlet(np.ones(n))
    if isinstance(base, NonnegOrthant):
        return np.abs(rng.standard_normal(n)) * 2.0
    lo = np.where(np.isfinite(base.lo), base.lo, -5.0)
    hi = np.where(np.isfinite(base.hi), base.hi, 5.0)
    return rng.uniform(np.minimum(lo, hi), np.maximum(lo, hi))


@pytest.mark.parametrize(
    "args",
    [
        (Simplex(1.0), [1.22], 1.23, [0.14]),
        (Simplex(1.0), [-0.38, 0.46, 0.82], 0.83, [-0.1, 0.68, -0.14]),
    ],
)
def test_simplex_cut_that_misses_the_base_raises(args):
    # max of a.x over the simplex is total * max(a), below b in both.
    with pytest.raises(InfeasibleSetError):
        project_intersection(*args)


def test_simplex_cut_just_beyond_the_top_face_always_raises():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n = int(rng.integers(1, 6))
        total = float(rng.uniform(0.5, 3.0))
        a, z = rng.standard_normal(n), rng.standard_normal(n) * 3.0
        with pytest.raises(InfeasibleSetError):
            project_intersection(Simplex(total), a, total * a.max() + 1e-3, z)


def _oracle_cases():
    rng = np.random.default_rng(7)
    cases = []
    for k in range(240):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal(n)
        a[rng.random(n) < 0.25] = 0.0  # zero entries in the normal
        if not np.any(a):
            a[0] = 1.0
        kind = k % 4
        if kind == 0:
            lo = -np.abs(rng.standard_normal(n))
            base = Box(lo, lo + rng.uniform(0.0, 2.0, n))
        elif kind == 1:  # some bounds infinite
            lo = np.where(rng.random(n) < 0.4, -np.inf, -np.abs(rng.standard_normal(n)))
            hi = np.where(rng.random(n) < 0.4, np.inf, np.abs(rng.standard_normal(n)))
            base = Box(lo, hi)
        elif kind == 2:  # mixed-sign normal over an unbounded base
            base = NonnegOrthant()
        else:
            base = Simplex(float(rng.uniform(0.5, 3.0)))
        z = rng.standard_normal(n) * 2.0
        anchor = rng.standard_normal(n) if k % 3 == 0 else None
        ref = np.zeros(n) if anchor is None else anchor
        v = _member(base, rng, n)
        high = _range(base, a, ref)[1]
        at_face = k % 5 == 0 and np.isfinite(high)
        b = high if at_face else float(a @ (v - ref))
        cases.append((base, a, b, z, anchor))
    # Box(0, 1) keeps bounds of shape (1,) that stand for every coordinate;
    # dropping the coordinate with a_i = 0 must not index them at full length.
    a, z = np.array([1.0, 0.0, 2.0]), np.array([0.3, 1.5, -0.2])
    cases += [(Box(0.0, 1.0), a, 1.0, z, None), (Box(0.0, 1.0), a, -3.0, z, np.array([0.5, -1.0, 2.0]))]
    return cases


def test_cut_projection_matches_the_active_set_oracle():
    for base, a, b, z, anchor in _oracle_cases():
        expected = kkt_cut_bruteforce(base, a, b, z, anchor)
        assert expected is not None
        out = project_intersection(base, a, b, z, anchor=anchor)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10, err_msg=f"{base} a={a} b={b} z={z}")


def _large_cut(kind, n, anchored, rng):
    # A cut through a random point v of the base, at a size the active-set
    # oracle cannot enumerate.
    if kind == "simplex":
        base, a = Simplex(1.0), rng.uniform(0.5, 1.5, n)
        v, z = rng.dirichlet(np.ones(n)), rng.uniform(0.0, 2.0 / n, n)
    else:
        a, z = rng.uniform(-1.0, 1.0, n), rng.standard_normal(n)
        if kind == "orthant":
            base, v = NonnegOrthant(), np.abs(rng.standard_normal(n))
        else:
            lo = rng.uniform(-1.0, 0.0, n)
            hi = lo + rng.uniform(0.0, 2.0, n)
            v = rng.uniform(lo, hi)
            if kind == "infinite-box":
                lo = np.where(rng.random(n) < 0.3, -np.inf, lo)
                hi = np.where(rng.random(n) < 0.3, np.inf, hi)
            base = Box(lo, hi)
    anchor = rng.standard_normal(n) if anchored else None
    ref = np.zeros(n) if anchor is None else anchor
    return base, a, float(a @ (v - ref)), z, anchor


@pytest.mark.parametrize("n", [1000, 100000])
@pytest.mark.parametrize("kind", ["box", "infinite-box", "orthant", "simplex"])
@pytest.mark.parametrize("anchored", [False, True])
def test_large_cut_projection_meets_the_kkt_conditions(n, kind, anchored):
    base, a, b, z, anchor = _large_cut(kind, n, anchored, np.random.default_rng(n + len(kind) + anchored))
    x = project_intersection(base, a, b, z, anchor=anchor)
    assert kkt_cut_residual(base, a, b, z, anchor, x) <= 1e-12
    # The check sees a single free coordinate moved by 1e-8.
    lo, hi = (base.lo, base.hi) if isinstance(base, Box) else (0.0, np.inf)
    j = np.flatnonzero((lo + 1e-7 < x) & (x < hi - 1e-7) & (a != 0))[0]
    x[j] += 1e-8
    assert kkt_cut_residual(base, a, b, z, anchor, x) > 1e-12


@pytest.fixture
def base_projections(monkeypatch):
    """A one-entry list that counts the calls of ``gvikit.sets.project``."""
    calls = [0]
    project = gvikit.sets.project

    def counted_project(cset, z):
        calls[0] += 1
        return project(cset, z)

    monkeypatch.setattr(gvikit.sets, "project", counted_project)
    return calls


def test_simplex_cut_makes_few_base_projections_on_the_hyperplane_workload(base_projections):
    # The cut set of the benchmark's hyperplane workload: the unit simplex
    # cut by a normal a ~ U[0.5, 1.5] at b = mean(a), projecting z ~ U[0, 2/n].
    # The first trial, at the root on the simplex's affine hull, tries every
    # coordinate: 55 of the 200 cuts never sort, 141 sort once and 4 twice.
    rng, n, counts = np.random.default_rng(4000), 4000, []
    for _ in range(200):
        a, z = rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 2.0 / n, n)
        base_projections[0] = 0
        project_intersection(Simplex(1.0), a, float(np.mean(a)), z)
        counts.append(base_projections[0])
    assert (sum(counts), max(counts)) == (149, 2)


@pytest.mark.parametrize(
    ("b", "expected_sorts"),
    [(2.0, 0),  # the root keeps every coordinate positive: the first trial's support holds
     (1.3, 1)],  # the root zeroes the last coordinate, as the first trial's projection does
)
def test_simplex_cut_trial_reuses_the_support_only_where_it_holds(b, expected_sorts, base_projections):
    # A trial first tries the support of the last sorted projection, or every
    # coordinate before any sort, and keeps it only when exactly that support
    # stays positive; otherwise it sorts.
    base, a, z = Simplex(1.0), np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.3, 0.4])
    x = project_intersection(base, a, b, z)
    np.testing.assert_allclose(x, kkt_cut_bruteforce(base, a, b, z, None), rtol=0, atol=1e-10)
    assert base_projections[0] == expected_sorts


def test_simplex_cut_sorts_again_where_a_trial_leaves_the_support(base_projections):
    # The first trial, at the root on the affine hull, leaves every
    # coordinate's support for the second vertex; the far end on the right
    # sorts to the first vertex; the bisection between them to the root's
    # edge, which the last two trials keep.
    base, a, z = Simplex(1.0), np.array([1.0, 2.0, 3.0]), np.array([0.0, 2.0, 0.0])
    x = project_intersection(base, a, 1.3, z)
    np.testing.assert_allclose(x, kkt_cut_bruteforce(base, a, 1.3, z, None), rtol=0, atol=1e-10)
    assert base_projections[0] == 3


def test_cut_search_moves_into_the_bracket_when_a_step_rounds_to_its_start(monkeypatch):
    # At z = 0 the first trial, at the root on the affine hull, has phi =
    # 5.6e-17, and the Newton step from it rounds back to it.  The search
    # moves one float into the bracket, where the piece holds, and takes one
    # more step; a step taken as off the bracket would jump to the far end
    # and bisect back down to the root (57 trials).
    trials, newton_cut = [], gvikit.sets._newton_cut
    monkeypatch.setattr(gvikit.sets, "_newton_cut",
                        lambda phi, *rest: newton_cut(lambda t: trials.append(t) or phi(t), *rest))
    base, a, z = Simplex(1.0), np.array([1.0, 2.0, 3.0]), np.zeros(3)
    x = project_intersection(base, a, 1.5, z)
    np.testing.assert_allclose(x, kkt_cut_bruteforce(base, a, 1.5, z, None), rtol=0, atol=1e-10)
    assert len(trials) == 3


def test_cut_search_starts_at_zero_where_the_free_root_is_not_finite(monkeypatch):
    # a.z overflows, so the root phi would have were every coordinate free
    # is not finite: the search starts at 0 and still finds the projection.
    starts, newton_cut = [], gvikit.sets._newton_cut
    monkeypatch.setattr(gvikit.sets, "_newton_cut", lambda *args: starts.append(args[-1]) or newton_cut(*args))
    base, a, b, z = Box(np.zeros(3), np.ones(3)), np.full(3, 1e150), 1.5e150, np.array([1e160, 0.5, 0.25])
    x = project_intersection(base, a, b, z)
    assert starts == [0.0]
    assert kkt_cut_residual(base, a, b, z, None, x) <= 1e-12


# Entries on a grid of 1e-3 keep the ratios inside one normal bounded, so
# the magnitudes below set the scale of the instance, not its conditioning.
_unit = st.integers(-1000, 1000).map(lambda k: k / 1000.0)
_magnitude = st.floats(-6.0, 8.0).map(lambda e: 10.0**e)
PROPERTY_SETTINGS = settings(
    max_examples=400, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def cuts(draw):
    """A base, a normal, a point z, an optional anchor and a point v of the base."""
    n = draw(st.integers(1, 6))
    vector = st.lists(_unit, min_size=n, max_size=n).map(np.array)
    kind = draw(st.sampled_from(["box", "infinite-box", "orthant", "simplex"]))
    size, a_size = draw(_magnitude), draw(_magnitude)
    if kind == "simplex":
        base = Simplex(size * draw(st.floats(0.1, 10.0)))
        weights = np.abs(draw(vector))
        if not np.any(weights):
            weights[0] = 1.0
        v = base.total * weights / weights.sum()
        near = np.ones(n)
    else:
        if kind == "orthant":
            base, lo, hi = NonnegOrthant(), np.zeros(n), np.full(n, np.inf)
        else:
            lo = size * draw(vector)
            hi = lo + size * np.abs(draw(vector))
            if kind == "infinite-box":
                lo = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), -np.inf, lo)
                hi = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), np.inf, hi)
            base = Box(lo, hi)
        t = np.abs(draw(vector))
        finite_lo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0) - size)
        finite_hi = np.where(np.isfinite(hi), hi, finite_lo + size)
        v = finite_lo + t * (finite_hi - finite_lo)
        near = np.eye(n)[draw(st.integers(0, n - 1))]
    # Nearly parallel normals: ones for a simplex (where a.x is then almost
    # constant), a coordinate axis for a box.
    if draw(st.booleans()):
        a = near + 10.0 ** draw(st.floats(-12.0, -3.0)) * draw(vector)
    else:
        a = draw(vector)
    if not np.any(a):
        a[0] = 1.0
    a = a_size * a
    z = size * 3.0 * draw(vector)
    anchor = size * draw(vector) if draw(st.booleans()) else None
    return base, a, z, anchor, v


def _scale(a, *points):
    return float(np.abs(a) @ sum(np.abs(p) for p in points))


def _exact(vector):
    return [Fraction(float(t)) for t in vector]


def _onto_level(base, a, ref, v, x):
    """v moved within the base onto the level a.(w - ref) = a.(x - ref) that x lies on.

    Exact, in rationals; a simplex point is first rescaled to x's own sum:
    both differ from the total by rounding.  None if v has no room to move.
    """
    a, ref, v, x = _exact(a), _exact(ref), _exact(v), _exact(x)
    n = len(v)
    if isinstance(base, Simplex):
        v = [t * sum(x) / sum(v) for t in v]
        # Trade mass between two coordinates, which keeps the sum.
        moves = [(i, j) for i in range(n) for j in range(n) if a[i] != a[j]]
    else:
        moves = [(i, None) for i in range(n) if a[i] != 0]
    miss = sum(ai * (xi - vi) for ai, xi, vi in zip(a, x, v))
    lo = [Fraction(0)] * n if not isinstance(base, Box) else [Fraction(t) if np.isfinite(t) else None for t in base.lo]
    hi = [None] * n if not isinstance(base, Box) else [Fraction(t) if np.isfinite(t) else None for t in base.hi]
    for i, j in moves:
        step = miss / (a[i] - (0 if j is None else a[j]))
        out = list(v)
        out[i] += step
        if j is not None:
            out[j] -= step
        if all((l is None or l <= t) and (h is None or t <= h) for t, l, h in zip(out, lo, hi)):
            return out
    return None


@PROPERTY_SETTINGS
@given(cuts())
def test_cut_projection_is_feasible_and_solves_the_variational_inequality(cut):
    base, a, z, anchor, v = cut
    ref = np.zeros(z.size) if anchor is None else anchor
    b = float(a @ (v - ref))
    x = project_intersection(base, a, b, z, anchor=anchor)
    if isinstance(base, Simplex):
        assert np.all(x >= 0.0)
        assert abs(x.sum() - base.total) <= 1e-9 * base.total
    elif isinstance(base, Box):
        assert np.all((base.lo <= x) & (x <= base.hi))
    else:
        assert np.all(x >= 0.0)
    assert abs(float(a @ (x - ref)) - b) <= 1e-9 * (_scale(a, x, z, ref) + abs(b))
    # <x - z, w - x> >= 0 for w, the feasible point v the strategy built,
    # moved exactly onto the level of a.(x - ref) that x lies on.  Near-
    # parallel normals make the cut set move far when b moves by one
    # rounding, so the check is made on x's own level and in rationals.
    xq, zq = _exact(x), _exact(z)
    w = _onto_level(base, a, ref, v, x)
    assume(w is not None)
    size = np.linalg.norm(x) + np.linalg.norm(z) + np.linalg.norm(v)
    inner = sum((xi - zi) * (wi - xi) for xi, zi, wi in zip(xq, zq, w))
    assert inner >= -1e-9 * Fraction(float(size)) ** 2


@PROPERTY_SETTINGS
@given(cuts(), st.sampled_from(["below", "inside", "above"]), st.floats(1e-6, 10.0))
def test_cut_projection_raises_exactly_when_the_range_excludes_b(cut, where, shift):
    base, a, z, anchor, v = cut
    ref = np.zeros(z.size) if anchor is None else anchor
    low, high = _range(base, a, ref)
    margin = 1e-9 * (_scale(a, v, ref) + abs(float(a @ (v - ref))))
    step = shift * max(margin * 1e3, abs(float(a @ (v - ref))))
    b = {"below": low - step, "inside": float(a @ (v - ref)), "above": high + step}[where]
    if not np.isfinite(b) or low - margin <= b <= low + margin or high - margin <= b <= high + margin:
        return  # at a face, within rounding: either answer is right
    if low < b < high:
        project_intersection(base, a, b, z, anchor=anchor)
    else:
        with pytest.raises(InfeasibleSetError):
            project_intersection(base, a, b, z, anchor=anchor)


def _outcome(fn, *args):
    # The bytes of the projection, or the error it raised.
    try:
        return fn(*args).tobytes()
    except InfeasibleSetError:
        return InfeasibleSetError


def _assert_prepared_is_per_call(base, a, b, points):
    # The set builds its cut once; project_intersection builds it for every
    # call.  Each point, projected in turn onto one set object and then again
    # in reverse order, gives the bytes of the per-call projection each time.
    cset = IntersectionWithHyperplane(base, a, b)
    for z in points + points[::-1]:
        assert _outcome(project, cset, z) == _outcome(project_intersection, base, a, b, z)


@PROPERTY_SETTINGS
@given(cuts())
def test_prepared_cut_is_the_per_call_cut_bit_for_bit(cut):
    base, a, z, _, v = cut
    _assert_prepared_is_per_call(base, a, float(a @ v), [z, 2.0 * v - z])


@pytest.mark.parametrize("kind", ["box", "simplex"])
def test_prepared_cut_is_the_per_call_cut_on_the_hyperplane_workload_sets(kind):
    # The two cut sets of the benchmark's hyperplane workload at n = 4000.
    rng, n = np.random.default_rng(30), 4000
    a = rng.uniform(0.5, 1.5, n)
    if kind == "box":
        base, b = Box(np.zeros(n), np.ones(n)), 0.45 * float(a.sum())
        points = [rng.uniform(-0.5, 1.5, n) for _ in range(3)]
    else:
        base, b = Simplex(1.0), float(np.mean(a))
        points = [rng.uniform(0.0, 2.0 / n, n) for _ in range(3)]
    _assert_prepared_is_per_call(base, a, b, points)


def test_cut_set_edge_cases_keep_their_outcomes():
    unit_cube = Box(np.zeros(3), np.ones(3))
    missed = IntersectionWithHyperplane(unit_cube, np.ones(3), 5.0)  # builds: a.x <= 3 on the cube
    for z in (np.zeros(3), np.full(3, 2.0), np.array([0.3, -1.0, 4.0])):
        with pytest.raises(InfeasibleSetError):
            project(missed, z)
    face = IntersectionWithHyperplane(unit_cube, np.ones(3), 3.0)
    assert np.array_equal(project(face, np.array([0.3, -1.0, 4.0])), np.ones(3))
    # Bounds of size 1 stand for all three coordinates, with and without a
    # zero entry in the normal.
    short = Box(np.zeros(1), np.ones(1))
    z = np.array([0.3, 1.5, -0.2])
    for a, b in ((np.array([1.0, 0.0, 2.0]), 1.0), (np.array([1.0, 3.0, 2.0]), 2.5)):
        x = project(IntersectionWithHyperplane(short, a, b), z)
        assert np.array_equal(x, project_intersection(short, a, b, z))
        assert abs(float(a @ x) - b) <= 1e-12
    with pytest.raises(ValueError):
        IntersectionWithHyperplane(unit_cube, np.zeros(3), 1.0)
