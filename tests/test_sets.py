"""Projection, distance, and hyperplane-intersection behavior."""

import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gvikit.errors import InfeasibleSetError, NumericDomainError, UnsupportedSetError
from gvikit.sets import (
    _SMALL_SIMPLEX,
    Box,
    Halfspace,
    Hyperplane,
    IntersectionWithHyperplane,
    NonnegOrthant,
    Simplex,
    WholeSpace,
    contains,
    distance,
    _scanned_shift,
    _sorted_shift,
    project,
    project_intersection,
)

TRIALS = 1000


def _variants(dim, rng):
    lo = -np.abs(rng.standard_normal(dim))
    hi = np.abs(rng.standard_normal(dim)) + 0.5
    a = rng.standard_normal(dim)
    box = Box(np.zeros(dim), np.ones(dim))
    return [
        WholeSpace(),
        NonnegOrthant(),
        Box(lo, hi),
        Simplex(total=2.0),
        Halfspace(a, 0.5),
        Hyperplane(a, 0.25),
        IntersectionWithHyperplane(box, np.ones(dim), 1.0),
    ]


def test_box_projection_is_componentwise_clamp():
    box = Box(np.zeros(3), np.ones(3))
    out = project(box, np.array([1.5, -0.2, 0.7]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.7])


def test_simplex_projection_hits_vertex():
    out = project(Simplex(total=1.0), np.array([2.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_simplex_projection_of_origin_is_uniform():
    out = project(Simplex(total=1.0), np.zeros(2))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_simplex_projection_matches_dual_bisection_oracle():
    # Independent route: x(theta) = max(z - theta, 0) with the scalar
    # theta chosen by bisection so the coordinates sum to the total.
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = rng.standard_normal(6) * 3.0
        lo_t, hi_t = np.min(z) - 3.0, np.max(z)
        for _ in range(200):
            mid = 0.5 * (lo_t + hi_t)
            if np.sum(np.maximum(z - mid, 0.0)) > 2.0:
                lo_t = mid
            else:
                hi_t = mid
        oracle = np.maximum(z - 0.5 * (lo_t + hi_t), 0.0)
        np.testing.assert_allclose(project(Simplex(total=2.0), z), oracle, atol=1e-8)


def test_distance_zero_at_feasible_point():
    assert distance(Box(np.zeros(2), np.ones(2)), np.array([0.3, 0.9])) == 0.0


def test_distance_scalar_box():
    assert distance(Box(np.zeros(1), np.ones(1)), np.array([2.0])) == pytest.approx(1.0)


def test_distance_orthant():
    assert distance(NonnegOrthant(), np.array([-3.0, 4.0])) == pytest.approx(3.0)


def test_intersection_projection_fixes_feasible_point():
    box = Box(np.zeros(2), np.ones(2))
    z = np.array([0.25, 0.75])
    out = project_intersection(box, np.ones(2), float(np.sum(z)), z)
    np.testing.assert_allclose(out, z, atol=1e-10)


def test_intersection_projection_symmetric_case():
    box = Box(np.zeros(2), np.ones(2))
    out = project_intersection(box, np.ones(2), 1.0, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-10)


def test_intersection_projection_decoupled_coordinates():
    box = Box(np.zeros(2), np.ones(2))
    out = project_intersection(box, np.array([1.0, 0.0]), 0.25, np.array([1.0, 0.5]))
    np.testing.assert_allclose(out, [0.25, 0.5], atol=1e-10)


def test_intersection_projection_measures_the_offset_from_the_anchor():
    box = Box(np.zeros(3), np.full(3, 4.0))
    a, z, anchor = np.array([1.0, 2.0, 0.0]), np.array([3.0, 1.0, 2.0]), np.ones(3)
    out = project_intersection(box, a, 0.5, z, anchor=anchor)
    assert float(a @ (out - anchor)) == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(out, project_intersection(box, a, 3.5, z), atol=1e-12)


def test_intersection_projection_rejects_unreachable_hyperplane():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(InfeasibleSetError):
        project_intersection(box, np.ones(2), 5.0, np.array([0.5, 0.5]))


def test_set_parameter_validation():
    with pytest.raises(ValueError):
        Box(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        Simplex(total=0.0)
    with pytest.raises(ValueError):
        Hyperplane(np.zeros(2), 1.0)
    # A cut's base follows the rule of project_intersection and dp-optimal.
    with pytest.raises(UnsupportedSetError, match="not Halfspace"):
        IntersectionWithHyperplane(Halfspace(np.ones(2), 1.0), np.ones(2), 1.0)


@pytest.mark.parametrize(
    "make",
    [lambda a: Halfspace(a, 0.5), lambda a: Hyperplane(a, 0.25),
     lambda a: IntersectionWithHyperplane(Box(np.zeros(3), np.ones(3)), a, 1.5)],
    ids=["Halfspace", "Hyperplane", "IntersectionWithHyperplane"],
)
def test_set_keeps_its_own_read_only_normal(make):
    # The set and what it builds from a stay as they were when the caller
    # later writes into its own array.
    a, z = np.array([1.0, 2.0, 3.0]), np.array([0.9, -0.4, 0.8])
    cset = make(a)
    before = project(cset, z)
    a[:] = [-5.0, 0.5, 7.0]
    assert np.array_equal(cset.a, [1.0, 2.0, 3.0])
    assert project(cset, z).tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        cset.a[0] = 4.0


@pytest.mark.parametrize(
    "make",
    [lambda a: Halfspace(a, 0.5), lambda a: Hyperplane(a, 0.25),
     lambda a: IntersectionWithHyperplane(Box(np.zeros(3), np.ones(3)), a, 1.5),
     lambda a: IntersectionWithHyperplane(Simplex(2.0), a, 3.0)],
    ids=["Halfspace", "Hyperplane", "IntersectionWithHyperplane-Box", "IntersectionWithHyperplane-Simplex"],
)
@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_set_rebuilds_its_read_only_normal_when_unpickled(make, clone):
    # The clone is built by the constructor again: its normal is its own
    # read-only copy, and it projects to the same bytes.
    z = np.array([0.9, -0.4, 0.8])
    cset = make(np.array([1.0, 2.0, 3.0]))
    again = clone(cset)
    assert type(again) is type(cset)
    assert not again.a.flags.writeable
    assert again.a is not cset.a
    assert np.array_equal(again.a, cset.a) and again.b == cset.b
    assert project(again, z).tobytes() == project(cset, z).tobytes()


def test_projection_nonexpansive_all_variants():
    rng = np.random.default_rng(0)
    for cset in _variants(4, rng):
        z1 = rng.standard_normal((TRIALS, 4)) * 3.0
        z2 = rng.standard_normal((TRIALS, 4)) * 3.0
        for a, b in zip(z1, z2):
            lhs = np.linalg.norm(project(cset, a) - project(cset, b))
            assert lhs <= np.linalg.norm(a - b) + 1e-10


def test_projection_firm_inequality_all_variants():
    # ||Pz - u||^2 <= ||z - u||^2 - ||z - Pz||^2 for feasible u.
    rng = np.random.default_rng(1)
    for cset in _variants(4, rng):
        for _ in range(TRIALS // 4):
            z = rng.standard_normal(4) * 3.0
            u = project(cset, rng.standard_normal(4) * 3.0)
            pz = project(cset, z)
            lhs = np.linalg.norm(pz - u) ** 2
            rhs = np.linalg.norm(z - u) ** 2 - np.linalg.norm(z - pz) ** 2
            assert lhs <= rhs + 1e-9


def test_projection_idempotent_all_variants():
    rng = np.random.default_rng(2)
    for cset in _variants(4, rng):
        for _ in range(TRIALS // 4):
            pz = project(cset, rng.standard_normal(4) * 3.0)
            assert np.linalg.norm(project(cset, pz) - pz) <= 1e-12


def test_projection_characterization_all_variants():
    # <Pz - z, v - Pz> >= 0 for every feasible v.
    rng = np.random.default_rng(4)
    for cset in _variants(4, rng):
        for _ in range(TRIALS // 4):
            z = rng.standard_normal(4) * 3.0
            pz = project(cset, z)
            v = project(cset, rng.standard_normal(4) * 3.0)
            assert float((pz - z) @ (v - pz)) >= -1e-10


def test_projected_points_are_members():
    rng = np.random.default_rng(5)
    for cset in _variants(4, rng):
        for _ in range(50):
            assert contains(cset, project(cset, rng.standard_normal(4) * 3.0))


def test_whole_space_projection_is_identity():
    z = np.array([5.0, -7.0, 0.0])
    np.testing.assert_array_equal(project(WholeSpace(), z), z)


def _sorted_simplex(z, total):
    # The sort-based projection, written out: theta from the last k whose
    # cancellation-safe test holds, taken again on z - max(z) where it
    # leaves no coordinate positive.  Its sums overflow or meet inf - inf
    # as numpy's do, so it runs quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            u = np.sort(z)[::-1]
            css = u.cumsum()
            k = np.arange(1.0, z.size + 1)
            idx = ((u * k - css) + total > 0).nonzero()[0][-1]
            theta = (css[idx] - total) / (idx + 1.0)
            if theta < u[0]:
                break
            z = z - u[0]
        return np.maximum(z - theta, 0.0)


_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1.7e308, -1.7e308, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _shift_or_error(shift, z, total):
    try:
        return struct.pack("<dd", *shift(z, total))
    except NumericDomainError:
        return "NumericDomainError"


@given(st.lists(_ENTRIES, min_size=1, max_size=_SMALL_SIMPLEX + 1), st.booleans(),
       st.sampled_from([1.0, 4.0, 1e-300, 1e300]))
@example([3.0, 3.0, 3.0, 3.0], False, 4.0)
@example([-1.0, -2.0, -2.0, -5.0], False, 4.0)
@example([1e300, -1e300, 1e300, 0.5], False, 4.0)
@example([-1e300] * (_SMALL_SIMPLEX + 1), False, 4.0)
@example([0.5, 0.3, 1e160], False, 1.0)
@example([1.7e308, -1.7e308] + [0.3] * (_SMALL_SIMPLEX - 1), False, 4.0)
def test_scanned_simplex_shift_is_the_sorted_shift_bit_for_bit(entries, negate, total):
    # Ties, huge and all-negative z: the scan on Python floats makes the
    # sort path's sums and tests, so theta and max(z) have the same bytes,
    # or both raise.  The projection warns of nothing (warnings are errors here).
    z = np.array(entries, dtype=float)
    if negate:
        z = -np.abs(z)
    assert _shift_or_error(_scanned_shift, z, total) == _shift_or_error(_sorted_shift, z, total)
    if np.isfinite(z).any():
        assert project(Simplex(total), z).tobytes() == _sorted_simplex(z, total).tobytes()


@pytest.mark.parametrize("n", [3, _SMALL_SIMPLEX, _SMALL_SIMPLEX + 1, 100])
@pytest.mark.parametrize(("head", "total", "expected"), [
    ([0.5, 0.3, 1e160], 1.0, [0.0, 0.0, 1.0]),
    ([1e160, 1e160, 0.3], 1.0, [0.5, 0.5, 0.0]),
    ([1.7e308, -1.7e308, 0.0], 4.0, [4.0, 0.0, 0.0]),
    ([1.5 * 2.0**1023, -1.5 * 2.0**1023, 0.0], 2.0**1023, [2.0**1023, 0.0, 0.0]),
])
def test_simplex_projection_keeps_the_total_at_extreme_magnitudes(n, head, total, expected):
    # The total rounds away against an entry of 1e160 (theta would leave
    # every coordinate at 0), and z - theta overflows at 1.7e308, also where
    # theta = 2**1022 stays below max(z); either path returns the point and
    # warns of nothing (warnings are errors here).
    z = np.zeros(n)
    z[:3] = head
    assert project(Simplex(total), z).tolist() == expected + [0.0] * (n - 3)


@pytest.mark.parametrize("n", [4, _SMALL_SIMPLEX + 1, 100])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simplex_projection_of_nan_or_plus_inf_raises(n, bad):
    # Either path, at every position: never an IndexError, a NaN point or a warning.
    for i in range(min(n, 8)):
        z = np.linspace(-1.0, 2.0, n)
        z[i] = bad
        with pytest.raises(NumericDomainError):
            project(Simplex(4.0), z)
    with pytest.raises(NumericDomainError):
        project(Simplex(4.0), np.full(n, -np.inf))


@pytest.mark.parametrize("n", [4, _SMALL_SIMPLEX, _SMALL_SIMPLEX + 1, 100])
def test_simplex_projection_of_minus_inf_keeps_a_point(n):
    # Both paths return the point and warn of nothing (warnings are errors here).
    z = np.linspace(-1.0, 2.0, n)
    z[0] = -np.inf
    x = project(Simplex(4.0), z)
    assert x[0] == 0.0 and np.all(x >= 0.0) and abs(x.sum() - 4.0) <= 1e-12
    assert x.tobytes() == _sorted_simplex(z, 4.0).tobytes()


def test_box_subclass_projects_as_a_box():
    class Unit(Box):
        pass

    z = np.array([1.5, -0.2, 0.7])
    box = Unit(np.zeros(3), np.ones(3))
    assert project(box, z).tobytes() == project(Box(np.zeros(3), np.ones(3)), z).tobytes()


def test_array_sets_compare_and_hash_by_identity():
    box = Box(np.zeros(3), np.ones(3))
    sets = [box, Box(np.zeros(3), np.ones(3)), Halfspace(np.ones(3), 1.0), Hyperplane(np.ones(3), 1.0),
            IntersectionWithHyperplane(box, np.ones(3), 1.0)]
    assert box == box and box != sets[1]
    assert len(set(sets)) == len(sets)
    assert Simplex(1.0) == Simplex(1.0) and hash(Simplex(1.0)) == hash(Simplex(1.0))
    assert Simplex(1.0) != Simplex(2.0) and WholeSpace() == WholeSpace()
