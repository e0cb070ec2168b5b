"""Projection, distance, and hyperplane-intersection behavior."""

import copy
import pickle

import numpy as np
import pytest

from gvikit.errors import InfeasibleSetError, UnsupportedSetError
from gvikit.sets import (
    Box,
    Halfspace,
    Hyperplane,
    IntersectionWithHyperplane,
    NonnegOrthant,
    Simplex,
    WholeSpace,
    contains,
    distance,
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
