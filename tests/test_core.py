"""Problem types, residual maps, and shared configuration plumbing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_lipschitz_sample, fd_gradient

from gvikit import (
    ALGORITHMS,
    GviProblem,
    ProblemSpec,
    SolveConfig,
    build_problem,
    complementarity_gap,
    is_solution,
    quasi_to_general,
    residual,
    solve_projection,
    wiener_hopf_residual,
)
import gvikit.auxiliary
import gvikit.core
import gvikit.solvers
import gvikit.wiener_hopf
from gvikit.core import check_divergence, g_value, inner_fixed_point, projection_stage, recover_iterate
from gvikit.errors import (
    CapabilityError,
    DivergenceError,
    InnerLoopError,
    NumericDomainError,
    UnsupportedSetError,
)
from gvikit.sets import Box, NonnegOrthant, Simplex, WholeSpace, project


def test_residual_vanishes_at_known_solution(example4_10):
    out = residual(example4_10, np.ones(10), rho=1.0)
    np.testing.assert_allclose(out, np.zeros(10), atol=1e-14)


def test_residual_zero_operator_feasible_point(zero_operator_problem):
    u = np.full(3, 0.4)
    np.testing.assert_array_equal(residual(zero_operator_problem, u, 1.0), np.zeros(3))


def test_residual_clamps_against_box(example3_2):
    # At the origin the shifted point is e, feasible, so R = -e.
    out = residual(example3_2, np.zeros(2), rho=1.0)
    np.testing.assert_allclose(out, -np.ones(2), atol=1e-14)


def test_residual_rejects_nonfinite_operator():
    bad = GviProblem(dim=2, T=lambda x: np.array([np.nan, 1.0]), K=NonnegOrthant())
    with pytest.raises(NumericDomainError):
        residual(bad, np.zeros(2), 1.0)


def test_is_solution_examples(example4_10, example3_10, zero_operator_problem):
    assert is_solution(example4_10, np.ones(10), rho=1.0, tol=1e-7)
    assert is_solution(zero_operator_problem, np.full(3, 0.2), rho=1.0, tol=1e-12)
    assert not is_solution(example3_10, np.zeros(10), rho=1.0, tol=1e-7)
    assert np.linalg.norm(residual(example3_10, np.zeros(10), 1.0)) == pytest.approx(
        np.sqrt(10.0)
    )


def test_complementarity_gap_origin_solves():
    prob = GviProblem(dim=2, T=lambda u: u, K=NonnegOrthant())
    gap = complementarity_gap(prob, np.zeros(2))
    assert (gap.primal_violation, gap.dual_violation, gap.pairing) == (0.0, 0.0, 0.0)


def test_complementarity_gap_interior_zero():
    prob = GviProblem(dim=2, T=lambda u: u - 1.0, K=NonnegOrthant())
    gap = complementarity_gap(prob, np.ones(2))
    assert gap.primal_violation == 0.0
    assert gap.dual_violation == 0.0
    assert gap.pairing == pytest.approx(0.0)


def test_complementarity_gap_detects_primal_violation():
    prob = GviProblem(dim=2, T=lambda u: u + 1.0, K=NonnegOrthant())
    gap = complementarity_gap(prob, -np.ones(2))
    assert gap.primal_violation == pytest.approx(1.0)
    assert gap.dual_violation == 0.0
    assert gap.pairing == pytest.approx(0.0)


def test_complementarity_gap_requires_cone():
    prob = GviProblem(dim=2, T=lambda u: u, K=Box(np.zeros(2), np.ones(2)))
    with pytest.raises(UnsupportedSetError):
        complementarity_gap(prob, np.zeros(2))


def test_quasi_to_general_zero_shift_is_identity_map():
    K = Box(np.zeros(2), np.ones(2))
    prob = quasi_to_general(lambda u: np.zeros(2), K, lambda u: u - 1.0, dim=2)
    u = np.array([0.3, -0.8])
    np.testing.assert_allclose(g_value(prob, u), u)


def test_quasi_to_general_constant_shift_fixed_point():
    c = np.array([0.1, 0.2])
    K = Box(np.zeros(2), np.ones(2))
    prob = quasi_to_general(lambda u: c, K, lambda u: u - 1.0, dim=2)
    report = solve_projection(prob, SolveConfig(rho=0.5))
    u = report.solution
    lhs = u - c
    rhs = project(K, (u - c) - 0.5 * (u - 1.0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_quasi_to_general_linear_shift_matches_grid_search():
    # g(u) = 0.9u over the unit box; brute-force the transformed fixed
    # point over [0,2]^2 and compare the solver's answer.
    K = Box(np.zeros(2), np.ones(2))
    prob = quasi_to_general(lambda u: 0.1 * u, K, lambda u: u - 1.0, dim=2)
    report = solve_projection(prob, SolveConfig(rho=0.5, tol=1e-10))
    axis = np.linspace(0.0, 2.0, 2001)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    gx, gy = 0.9 * xs, 0.9 * ys
    px = np.clip(gx - 0.5 * (xs - 1.0), 0.0, 1.0)
    py = np.clip(gy - 0.5 * (ys - 1.0), 0.0, 1.0)
    res = np.maximum(np.abs(gx - px), np.abs(gy - py))
    k = np.unravel_index(np.argmin(res), res.shape)
    best = np.array([axis[k[0]], axis[k[1]]])
    assert np.max(np.abs(report.solution - best)) <= 1e-3


def _example3_under_a_g_without_inverse(n=10):
    # g(u) = 0.9u without g_inverse.  example3's solution lies inside the
    # box, so it also solves this problem.
    example3 = build_problem(ProblemSpec("example3", n=n))
    problem = quasi_to_general(lambda u: 0.1 * u, Box(np.zeros(n), np.ones(n)), example3.T, n)
    assert problem.g_inverse is None
    return problem, example3.known_solution


@pytest.mark.parametrize("algorithm", [
    "two-step", "whe", "three-step", "dynamical-forward", "dynamical-implicit", "dynamical-explicit",
    "dp-basic", "dp-optimal",
])
def test_solvers_recover_iterates_through_the_g_device(algorithm):
    # Each g-space update goes back to u by recover_iterate's device
    # point - g(point) + new.
    problem, solution = _example3_under_a_g_without_inverse()
    report = ALGORITHMS[algorithm](problem, SolveConfig(rho=0.15))
    assert report.converged
    assert np.max(np.abs(report.solution - solution)) <= 1e-6


# g evaluations at rho = 0.15: (with the g(point) each step holds, with g
# evaluated again at every recovery).
G_CALLS = {
    "two-step": (61, 91), "whe": (22, 64), "three-step": (43, 85), "dynamical-forward": (107, 569),
    "dynamical-implicit": (58, 312), "dp-basic": (47, 139), "dp-optimal": (47, 139),
}


@pytest.mark.parametrize("algorithm", G_CALLS)
def test_g_device_takes_the_g_value_the_step_holds(algorithm, monkeypatch):
    # A recovery from a point whose g-value the step holds (the stage's
    # g(u), or a three-step stage's g(y) and g(w)) evaluates no g, and
    # gives the bytes of a recovery that evaluates g again.
    problem, _ = _example3_under_a_g_without_inverse()
    calls, g = [0], problem.g

    def counted_g(u):
        calls[0] += 1
        return g(u)

    problem = dataclasses.replace(problem, g=counted_g)
    held = ALGORITHMS[algorithm](problem, SolveConfig(rho=0.15))
    held_calls, calls[0] = calls[0], 0

    def fresh(problem, point, new_g_value, g_point=None):
        return recover_iterate(problem, point, new_g_value)

    for module in (gvikit.solvers, gvikit.wiener_hopf, gvikit.auxiliary):
        monkeypatch.setattr(module, "recover_iterate", fresh)
    again = ALGORITHMS[algorithm](problem, SolveConfig(rho=0.15))
    assert held.converged
    assert (held_calls, calls[0]) == G_CALLS[algorithm]
    assert held.iterations == again.iterations
    assert held.solution.tobytes() == again.solution.tobytes()


@pytest.mark.parametrize("algorithm", ["extragradient", "gap-descent"])
def test_solvers_without_the_g_device_refuse_a_g_without_inverse(algorithm):
    problem, _ = _example3_under_a_g_without_inverse()
    with pytest.raises(CapabilityError):
        ALGORITHMS[algorithm](problem, SolveConfig(rho=0.15))


def test_wiener_hopf_residual_zero_operator(zero_operator_problem):
    z = np.full(3, 0.5)
    np.testing.assert_array_equal(wiener_hopf_residual(zero_operator_problem, z, 1.0), np.zeros(3))


def test_wiener_hopf_residual_at_solution_shift(example4_10):
    u = np.ones(10)
    z = u - example4_10.T(u)
    np.testing.assert_allclose(wiener_hopf_residual(example4_10, z, 1.0), np.zeros(10), atol=1e-12)


def test_wiener_hopf_residual_scalar_orthant():
    prob = GviProblem(dim=1, T=lambda u: u, K=NonnegOrthant())
    out = wiener_hopf_residual(prob, np.array([-1.0]), 1.0)
    np.testing.assert_allclose(out, [-1.0])


def test_wiener_hopf_residual_needs_inverse_for_nonidentity_g():
    prob = GviProblem(
        dim=2,
        T=lambda u: u,
        K=NonnegOrthant(),
        g=lambda u: 2.0 * u,
    )
    with pytest.raises(CapabilityError):
        wiener_hopf_residual(prob, np.zeros(2), 1.0)


def test_fixed_point_equivalence_of_residual(example4_10):
    # ||R(u)|| = 0 exactly when g(u) is the projection of the shifted
    # point, across step scales.
    rng = np.random.default_rng(0)
    for rho in (0.1, 1.0, 10.0):
        for _ in range(20):
            u = rng.uniform(0.0, 1.0, 10)
            r = np.linalg.norm(residual(example4_10, u, rho))
            gu = g_value(example4_10, u)
            fp = np.linalg.norm(
                gu - project(example4_10.K, gu - rho * example4_10.T(u))
            )
            assert (r <= 1e-10) == (fp <= 1e-10)
        star = np.ones(10)
        assert np.linalg.norm(residual(example4_10, star, rho)) <= 1e-10


def test_wiener_hopf_shift_equivalence(example4_10):
    # A residual zero maps to a Wiener-Hopf zero through z = g(u) - rho*Tu
    # and back through u = recover(P_K z).
    rho = 1.0
    u_star = np.ones(10)
    z = g_value(example4_10, u_star) - rho * example4_10.T(u_star)
    assert np.linalg.norm(wiener_hopf_residual(example4_10, z, rho)) <= 1e-8
    back = recover_iterate(example4_10, u_star, project(example4_10.K, z))
    assert np.linalg.norm(residual(example4_10, back, rho)) <= 1e-8


def test_residual_continuity_smoke_bound(example3_10):
    rng = np.random.default_rng(1)
    rho = 1.0
    L = box_lipschitz_sample(example3_10.T, example3_10.K.lo, example3_10.K.hi, 10)
    bound = 10.0 * (1.0 + rho * L + 2.0)
    for _ in range(50):
        u = rng.uniform(-1.0, 2.0, 10)
        delta = rng.standard_normal(10) * 1e-3
        diff = np.linalg.norm(
            residual(example3_10, u + delta, rho) - residual(example3_10, u, rho)
        )
        assert diff <= bound * np.linalg.norm(delta)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolveConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(lam=1.5)
    with pytest.raises(ValueError):
        SolveConfig(h=0.0)
    with pytest.raises(ValueError):
        SolveConfig(sigma=1.0)
    with pytest.raises(ValueError):
        SolveConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolveConfig(alpha=1.0)
    with pytest.raises(ValueError, match="inner_max_iters"):
        SolveConfig(inner_max_iters=0)
    with pytest.raises(ValueError, match="inner_tol"):
        SolveConfig(inner_tol=0.0)
    with pytest.raises(ValueError, match="inner_tol"):
        SolveConfig(inner_tol=-1.0)
    SolveConfig(inner_max_iters=1, inner_tol=1e-16)


def test_alpha_schedule_resolution():
    assert SolveConfig().alpha_at(5, default=1.0) == 1.0
    assert SolveConfig(alpha_schedule=0.25).alpha_at(5) == 0.25
    assert SolveConfig(alpha_schedule=lambda n: 1.0 / (n + 1)).alpha_at(3) == 0.25


def test_problem_validation_and_inverse_probe():
    with pytest.raises(ValueError):
        GviProblem(dim=0, T=lambda u: u, K=WholeSpace())
    with pytest.raises(ValueError):
        GviProblem(
            dim=2,
            T=lambda u: u,
            K=WholeSpace(),
            g=lambda u: 2.0 * u,
            g_inverse=lambda y: y,  # wrong inverse, probe must trip
        )
    ok = GviProblem(
        dim=2,
        T=lambda u: u,
        K=WholeSpace(),
        g=lambda u: 2.0 * u,
        g_inverse=lambda y: 0.5 * y,
    )
    np.testing.assert_allclose(ok.g_inverse(ok.g(np.array([1.0, -2.0]))), [1.0, -2.0])


def test_inverse_probe_without_g_checks_against_the_identity():
    # No g means g is the identity, so the probe compares g_inverse(u) with u.
    with pytest.raises(ValueError, match="g_inverse"):
        GviProblem(dim=2, T=lambda u: u, K=WholeSpace(), g_inverse=lambda y: 2.0 * y)
    ok = GviProblem(dim=2, T=lambda u: u, K=WholeSpace(), g_inverse=lambda y: np.array(y))
    np.testing.assert_array_equal(ok.g_inverse(np.array([1.0, -2.0])), [1.0, -2.0])


def test_resolve_rho_prefers_explicit_value(example4_10):
    assert solve_projection(example4_10, SolveConfig(rho=0.7)).details["rho"] == 0.7
    auto = solve_projection(example4_10, SolveConfig(rho=None)).details
    assert auto["rho"] > 0.0
    # From u_0 = 0, where T = -1, the first difference moves along the
    # diagonal of the box: rho_ref = 0.5 ||x|| / ||D x|| with D = diag(1..10)/10.
    assert auto["rho_ref"] == pytest.approx(0.5 * np.sqrt(10.0) / np.linalg.norm(np.arange(1, 11) / 10.0))


def test_first_difference_gives_rho_one_where_T_vanishes_or_does_not_change(zero_operator_problem):
    report = solve_projection(zero_operator_problem)
    assert (report.iterations, report.details["rho_ref"]) == (0, 1.0)
    constant = GviProblem(dim=3, T=lambda u: np.array([1.0, -1.0, 0.5]), K=Box(np.zeros(3), np.ones(3)))
    report = solve_projection(constant)
    assert report.converged
    assert report.details["rho_ref"] == 1.0
    np.testing.assert_array_equal(report.solution, [0.0, 1.0, 0.0])


def _counting(fn):
    calls = [0]

    def counted(w):
        calls[0] += 1
        return fn(w)

    return counted, calls


@pytest.mark.parametrize("k", [0, 3])
def test_inner_loop_stops_relative_to_its_first_step(k):
    # On a 1-d affine map the Anderson trial is the secant step, which is
    # exact: from 0, w <- 0.5w + 1 takes the plain trial 1, then 2.0 itself,
    # whatever the stop rule of outer step k.
    fn, calls = _counting(lambda w: 0.5 * w + 1.0)
    w, evals = inner_fixed_point(fn, np.zeros(1), SolveConfig(), "affine", k)
    assert evals == calls[0] == 3
    assert w[0] == 2.0


def _plain_evaluations(fn, w, stop_at):
    # Plain iteration w <- fn(w) under the same stop rule, stop_at(first step).
    stop, evals = None, 0
    while True:
        w_next = fn(w)
        evals += 1
        step = float(np.linalg.norm(w_next - w))
        stop = stop_at(step) if stop is None else stop
        if step <= stop:
            return evals
        w = w_next


@pytest.mark.parametrize(("k", "expected"), [(0, 6), (3, 11)])
def test_inner_loop_accelerates_a_non_normal_clipped_map(k, expected):
    # w <- clip(Mw + c, 0, 1) with a Jordan-like M: no one secant step is
    # exact, and the first coordinate sits at its bound at the fixed point.
    M = np.array([[0.7, 0.2, 0.0], [0.0, 0.7, 0.2], [0.0, 0.0, 0.7]])
    c = np.array([-0.3, 0.1, 0.25])
    clipped = lambda w: np.clip(M @ w + c, 0.0, 1.0)
    q = np.linalg.norm(M, 2)  # clip is nonexpansive, so the map's modulus is at most q
    assert q < 1.0
    star = np.zeros(3)
    for _ in range(2000):
        star = clipped(star)
    assert star[0] == 0.0 and 0.0 < star[1] < 1.0 and 0.0 < star[2] < 1.0

    def stop_at(first):
        return max(SolveConfig().inner_tol, gvikit.core._INNER_KAPPA / (k + 1) ** 2 * first)

    fn, calls = _counting(clipped)
    w, evals = inner_fixed_point(fn, np.zeros(3), SolveConfig(), "clipped", k)
    assert evals == calls[0] == expected
    assert evals < _plain_evaluations(clipped, np.zeros(3), stop_at)
    # The bound of the stop test holds for the returned fn(w_J).
    first = float(np.linalg.norm(clipped(np.zeros(3))))
    assert np.linalg.norm(w - star) <= q / (1.0 - q) * stop_at(first)


def test_inner_loop_finishes_on_plain_steps_once_a_residual_rises():
    # A contraction of modulus 0.9 that bends at w = 1.2.  From 0 the plain
    # trial is 1, and the secant of the lower piece predicts 2.0, where the
    # residual 1.12 exceeds the 0.5 before it: every later trial is plain.
    def bent(w):
        return np.where(w <= 1.2, 0.5 * w + 1.0, 1.6 - 0.9 * (w - 1.2))

    trials, values = [], []

    def recorded(w):
        trials.append(w.copy())
        values.append(bent(w))
        return values[-1]

    w, evals = inner_fixed_point(recorded, np.zeros(1), SolveConfig(), "bent", 3)
    assert trials[2][0] == 2.0
    residuals = [abs(v[0] - t[0]) for t, v in zip(trials, values)]
    assert residuals[2] > residuals[1]
    assert evals == len(trials) > 6
    for j in range(3, evals):
        np.testing.assert_array_equal(trials[j], values[j - 1])
    star = 2.68 / 1.9  # the fixed point on the upper piece
    stop = gvikit.core._INNER_KAPPA / (3 + 1) ** 2 * 1.0
    assert abs(w[0] - star) <= 0.9 / (1.0 - 0.9) * stop


def test_inner_loop_at_a_fixed_point_evaluates_once():
    fn, calls = _counting(lambda w: 0.5 * w + 1.0)
    w, evals = inner_fixed_point(fn, np.full(3, 2.0), SolveConfig(), "affine", 0)
    assert evals == calls[0] == 1
    np.testing.assert_array_equal(w, np.full(3, 2.0))


def test_inner_loop_on_an_expanding_map_raises_with_its_step_ratio():
    fn, calls = _counting(lambda w: 2.0 * w + 1.0)
    with pytest.raises(InnerLoopError, match=r"'expand'.* 50 evaluations.* is 2\..*smaller rho") as err:
        inner_fixed_point(fn, np.zeros(1), SolveConfig(inner_max_iters=50), "expand", 0)
    assert err.value.variant == "expand"
    assert calls[0] == 50


def test_divergence_detector():
    with pytest.raises(DivergenceError):
        check_divergence(np.array([1e13]))
    check_divergence(np.array([1e11]))
    for bad in (np.array([1.0, np.nan]), np.array([np.inf, 1.0]), np.array([-np.inf, np.nan])):
        with pytest.raises(NumericDomainError):
            check_divergence(bad)
    # Finite entries whose norm overflows to inf are a divergence, not a
    # domain error (the squares overflow, which numpy warns of).
    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        check_divergence(np.array([1e200, 1e200]))
    for edge in (np.array([1e12]), np.array([0.6e12, 0.8e12])):
        assert np.linalg.norm(edge) == 1e12
        check_divergence(edge)


_STAGE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.builds(lambda m, sign: sign * m, st.floats(1e149, 1e151), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.lists(_STAGE_ENTRIES, min_size=n, max_size=n),
                            st.lists(_STAGE_ENTRIES, min_size=n, max_size=n))
    ),
    rho=st.one_of(st.sampled_from([0.1, 0.5, 1.0]), st.floats(1e-3, 1e3)),
    kind=st.sampled_from(["box", "simplex", "whole"]),
)
def test_projection_stage_point_is_bit_for_bit_the_plain_expression(data, rho, kind):
    gu, t = (np.array(x) for x in data)
    n = gu.size
    K = {"box": Box(-np.ones(n), np.ones(n)), "simplex": Simplex(2.0), "whole": WholeSpace()}[kind]
    problem = GviProblem(dim=n, T=lambda u: t, K=K)
    stage = projection_stage(problem, gu, rho)
    assert stage.p.tobytes() == project(K, gu - rho * t).tobytes()


@pytest.mark.parametrize("alg", ["projection", "extragradient", "two-step"])
@pytest.mark.parametrize("spec", [("example2", None), ("example3", 100), ("example4", 1000)])
@pytest.mark.parametrize("rho", [None, 0.1])
def test_identity_g_steps_to_the_point_the_device_gives(alg, spec, rho):
    # g = None returns the projected point itself; an explicit identity g
    # takes the u - g(u) + w device, which gives the same point.
    problem = build_problem(ProblemSpec(*spec))
    explicit = dataclasses.replace(problem, g=lambda u: u, g_inverse=lambda u: u)
    plain = ALGORITHMS[alg](problem, SolveConfig(rho=rho, max_iters=300))
    device = ALGORITHMS[alg](explicit, SolveConfig(rho=rho, max_iters=300))
    assert plain.iterations == device.iterations
    assert np.array_equal(plain.solution, device.solution)


def test_operator_output_that_broadcasts_against_g_still_solves():
    # T returns shape (1,) at n = 3; the stage broadcasts it against g(u),
    # and the run is bit for bit the run with T broadcast by hand.
    short = GviProblem(dim=3, T=lambda u: np.array([u.sum() - 1.0]), K=Box(0, 1))
    full = GviProblem(dim=3, T=lambda u: np.full(3, u.sum() - 1.0), K=Box(0, 1))
    report = solve_projection(short, SolveConfig(rho=0.5))
    assert report.converged and report.iterations == 24
    reference = solve_projection(full, SolveConfig(rho=0.5))
    assert report.iterations == reference.iterations
    assert report.solution.tobytes() == reference.solution.tobytes()


def test_fd_gradient_oracle_self_check():
    # The oracle itself must be trustworthy: exact on a quadratic.
    f = lambda x: float(x @ x)
    x = np.array([0.3, -1.2])
    np.testing.assert_allclose(fd_gradient(f, x), 2 * x, atol=1e-8)
