"""Predictor-corrector and double-projection solvers with line search."""

import dataclasses

import numpy as np
import pytest

import gvikit.wiener_hopf
from gvikit import (
    ALGORITHMS,
    GviProblem,
    SolveConfig,
    armijo_search,
    is_solution,
    solve_double_projection_basic,
    solve_double_projection_optimal,
    solve_whe,
)
from gvikit.errors import InfeasibleSetError, LineSearchError
from gvikit.registry import ProblemSpec, build_problem
from gvikit.sets import Box, WholeSpace

DEFAULTS = SolveConfig(tol=1e-7, max_iters=1000, sigma=0.5, gamma=0.8)


def test_whe_one_step_on_zero_operator(zero_operator_problem):
    report = solve_whe(zero_operator_problem, u0=np.full(3, 0.5))
    assert report.converged
    assert report.iterations <= 1


def test_whe_converges_to_reference_solution(example3_10):
    report = solve_whe(example3_10, SolveConfig(rho=0.2))
    assert report.converged
    assert np.max(np.abs(report.solution - example3_10.known_solution)) <= 1e-5


def test_whe_converges_on_diagonal_instance(example4_10):
    report = solve_whe(example4_10, SolveConfig(rho=0.5))
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_whe_blended_variant_converges(example4_10):
    report = solve_whe(example4_10, SolveConfig(rho=0.5, alpha_schedule=0.7))
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_armijo_accepts_small_operator_immediately():
    prob = GviProblem(dim=2, T=lambda u: 0.1 * u, K=WholeSpace())
    out = armijo_search(prob, np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.8, 0.5)
    assert out.m == 0
    assert out.eta == 1.0


def test_armijo_zero_operator():
    prob = GviProblem(dim=2, T=lambda u: np.zeros(2), K=WholeSpace())
    out = armijo_search(prob, np.ones(2), np.array([1.0, 0.0]), 0.8, 0.5)
    assert out.m == 0


def test_armijo_counts_backtracks_on_stiff_operator():
    # 10 * 0.8^m <= 0.5 first holds at m = 14.
    prob = GviProblem(dim=2, T=lambda u: 10.0 * u, K=WholeSpace())
    out = armijo_search(prob, np.ones(2), np.array([1.0, 1.0]), 0.8, 0.5)
    assert out.m == 14
    assert out.eta == pytest.approx(0.8**14)
    np.testing.assert_allclose(out.trial_point, 1.0 - 0.8**14)


def test_armijo_smallest_index_property():
    rng = np.random.default_rng(0)
    for _ in range(30):
        scale = rng.uniform(0.1, 30.0)
        calls = [0]

        def T(u, s=scale):
            calls[0] += 1
            return s * u

        prob = GviProblem(dim=3, T=T, K=WholeSpace())
        u = rng.standard_normal(3)
        R = rng.standard_normal(3)
        Tu = scale * u
        rsq = float(R @ R)

        def lhs(m):
            return float((Tu - scale * (u - 0.8**m * R)) @ R)

        for start in (0, int(rng.integers(0, 25))):
            calls[0] = 0
            out = armijo_search(prob, u, R, 0.8, 0.5, T_u=Tu, start=start)
            assert out.m >= start
            assert lhs(out.m) <= 0.5 * rsq + 1e-12
            if out.m > start:
                assert lhs(out.m - 1) > 0.5 * rsq
            assert calls[0] == out.m - start + 1


def test_armijo_forms_eta_by_the_same_products_from_any_start():
    # eta is gamma multiplied in m times from 1.0, which is not always
    # gamma**m to the last bit: 0.8**16 differs from sixteen products.
    prob = GviProblem(dim=2, T=lambda u: 10.0 * u, K=WholeSpace())
    for start in (0, 5, 14, 16, 20):
        out = armijo_search(prob, np.ones(2), np.array([1.0, 1.0]), 0.8, 0.5, start=start)
        eta = 1.0
        for _ in range(out.m):
            eta *= 0.8
        assert (out.m, out.eta) == (max(14, start), eta)
    assert 0.8**16 != armijo_search(prob, np.ones(2), np.array([1.0, 1.0]), 0.8, 0.5, start=16).eta


def test_armijo_failure_on_pathological_scaling():
    prob = GviProblem(dim=1, T=lambda u: 1e30 * u, K=WholeSpace())
    with pytest.raises(LineSearchError, match="from 0 up to 64"):
        armijo_search(prob, np.array([1.0]), np.array([1.0]), 0.8, 0.5)
    with pytest.raises(LineSearchError, match="from 40 up to 64"):
        armijo_search(prob, np.array([1.0]), np.array([1.0]), 0.8, 0.5, start=40)


@pytest.mark.parametrize("start", [-1, 65])
def test_armijo_rejects_a_start_power_outside_the_search(start):
    prob = GviProblem(dim=1, T=lambda u: u, K=WholeSpace())
    with pytest.raises(ValueError, match="start"):
        armijo_search(prob, np.array([1.0]), np.array([1.0]), 0.8, 0.5, start=start)


@pytest.mark.parametrize(
    ("alg", "spec", "rho"),
    [("dp-basic", ("example3", 2000), 0.15), ("dp-optimal", ("example4", 1000), None)],
    ids=["dp-basic-example3", "dp-optimal-example4"],
)
def test_warm_armijo_start_keeps_the_iterates_of_searches_from_zero(alg, spec, rho, monkeypatch):
    problem = build_problem(ProblemSpec(*spec))
    calls = [0]

    def counted_T(x):
        calls[0] += 1
        return problem.T(x)

    counted = dataclasses.replace(problem, T=counted_T)
    warm = ALGORITHMS[alg](counted, SolveConfig(rho=rho))
    warm_calls, calls[0] = calls[0], 0
    search = gvikit.wiener_hopf.armijo_search
    monkeypatch.setattr(gvikit.wiener_hopf, "armijo_search",
                        lambda *args, start=0, **kwargs: search(*args, **kwargs))
    cold = ALGORITHMS[alg](counted, SolveConfig(rho=rho))
    assert warm.converged
    assert warm.iterations == cold.iterations
    assert warm.solution.tobytes() == cold.solution.tobytes()
    assert [rec.info["m"] for rec in warm.trace[1:]] == [rec.info["m"] for rec in cold.trace[1:]]
    assert warm_calls < calls[0]


def test_dp_basic_zero_operator_converges_without_stepping(zero_operator_problem):
    report = solve_double_projection_basic(zero_operator_problem, u0=np.full(3, 0.5))
    assert report.converged
    assert report.iterations == 0


def test_dp_basic_iteration_band(example3_10):
    report = solve_double_projection_basic(example3_10, DEFAULTS)
    assert report.converged
    assert abs(report.iterations - 47) <= 0.3 * 47


def test_dp_basic_fails_on_simplex_instance(example2):
    report = solve_double_projection_basic(example2, DEFAULTS)
    assert not report.converged
    assert report.iterations == 1000


def test_dp_optimal_iteration_bands(example3_10, example4_10, example2):
    for problem, target in ((example3_10, 44), (example4_10, 35), (example2, 96)):
        report = solve_double_projection_optimal(problem, DEFAULTS)
        assert report.converged
        assert abs(report.iterations - target) <= 0.3 * target
        rho = report.details["rho"]
        assert is_solution(problem, report.solution, rho, 1e-6)


def test_dp_accepted_steps_have_positive_pairing(example3_10, example4_10):
    for problem in (example3_10, example4_10):
        report = solve_double_projection_optimal(problem, DEFAULTS)
        cs = [rec.info["c"] for rec in report.trace if rec.info]
        assert cs
        assert all(c > 0.0 for c in cs)


def test_dp_residuals_eventually_monotone(example3_10):
    report = solve_double_projection_optimal(example3_10, DEFAULTS)
    rnorms = [rec.residual_norm for rec in report.trace]
    tail = rnorms[5:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_dp_optimal_steps_stay_on_cutting_hyperplane(example3_10, example4_10):
    for problem in (example3_10, example4_10):
        report = solve_double_projection_optimal(problem, DEFAULTS)
        for rec in report.trace:
            if not rec.info or "fallback" in rec.info:
                continue
            gap = abs(rec.info["step_g_d"] - rec.info["c"])
            assert gap <= 1e-8


def test_dp_optimal_falls_back_to_the_basic_step_when_a_cut_misses_k(example4_10, monkeypatch):
    cut = gvikit.wiener_hopf.project_intersection
    calls = []

    def first_cut_misses(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise InfeasibleSetError("forced miss")
        return cut(*args, **kwargs)

    monkeypatch.setattr(gvikit.wiener_hopf, "project_intersection", first_cut_misses)
    report = solve_double_projection_optimal(example4_10, SolveConfig())
    assert report.converged and report.iterations == 35
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6
    assert [k for k, rec in enumerate(report.trace) if rec.info and "fallback" in rec.info] == [1]
    assert report.trace[1].info["fallback"] == "basic"


def test_dp_optimal_cut_keeps_its_small_offset_at_large_n():
    # Near the solution the cut offset c is about 1e-14 while g(u).d is
    # about 300: added together, c rounds away and every step is zero.
    problem = build_problem(ProblemSpec("example4", n=1000))
    report = solve_double_projection_optimal(problem, SolveConfig())
    assert report.converged
    assert all(rec.info["step_gsq"] > 0.0 for rec in report.trace if rec.info)


def test_dp_converged_outputs_match_known_solutions(example3_10, example4_10):
    # The basic corrector's step length collapses on the diagonal
    # instance (tiny curvature in the first coordinates), so only the
    # tridiagonal instance is a basic-corrector benchmark.
    runs = [
        (example3_10, solve_double_projection_basic),
        (example3_10, solve_double_projection_optimal),
        (example4_10, solve_double_projection_optimal),
    ]
    for problem, solver in runs:
        report = solver(problem, DEFAULTS)
        assert report.converged
        assert np.max(np.abs(report.solution - problem.known_solution)) <= 1e-5


def test_dp_basic_crawls_on_diagonal_instance(example4_10):
    report = solve_double_projection_basic(example4_10, DEFAULTS)
    assert not report.converged
    assert report.iterations == 1000
