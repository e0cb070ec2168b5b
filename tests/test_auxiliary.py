"""Gap functions, three-step projection, and gap-descent line search."""

import numpy as np
import pytest

from oracles import box_gap, box_projection_residual, fd_gradient, p1_feasible_samples, p1_h1, p1_solution_branches

from gvikit import (
    ControlledOperator,
    GviProblem,
    ProblemSpec,
    SolveConfig,
    build_problem,
    gap_N,
    regularized_gap,
    regularized_gap_gradient,
    solve_gap_descent,
    solve_projection,
    solve_three_step,
)
from gvikit.errors import CapabilityError, StallError
from gvikit.sets import Box, NonnegOrthant, WholeSpace

P1_K = Box(np.array([1.0]), np.array([np.inf]))


def p1_operator():
    return ControlledOperator(
        T2=lambda u, z: np.atleast_1d(u[0] + z[0] - 1.0),
        jac_state=lambda u, z: np.array([[1.0]]),
    )


def p1_g(z):
    # The feasibility constraint couples state and control additively,
    # so each control value induces its own shifted point map.
    return lambda u: np.atleast_1d(u[0] + z * z)


def test_three_step_degenerates_to_projection(example4_5):
    cfg = SolveConfig(rho=0.5, mu_step=0.0, beta_step=0.0, max_iters=10, tol=1e-16)
    plain = solve_projection(example4_5, SolveConfig(rho=0.5, max_iters=10, tol=1e-16))
    degen = solve_three_step(example4_5, cfg)
    np.testing.assert_array_equal(plain.solution, degen.solution)


def test_three_step_converges_on_diagonal_instance(example4_10):
    cfg = SolveConfig(rho=0.5, mu_step=0.5, beta_step=0.5)
    report = solve_three_step(example4_10, cfg)
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_three_step_matches_projection_solution(example3_10):
    cfg = SolveConfig(rho=0.2, mu_step=0.2, beta_step=0.2)
    report = solve_three_step(example3_10, cfg)
    plain = solve_projection(example3_10, SolveConfig(rho=0.2))
    assert report.converged
    assert np.max(np.abs(report.solution - plain.solution)) <= 1e-5


def test_gap_vanishes_at_solution(example4_10):
    out = gap_N(example4_10, np.ones(10), rho=1.0)
    assert abs(out.value) <= 1e-12
    np.testing.assert_allclose(out.minimizer_point, np.ones(10), atol=1e-12)


def test_gap_zero_operator(zero_operator_problem):
    out = gap_N(zero_operator_problem, np.full(3, 0.5), rho=1.0)
    assert out.value == 0.0
    assert out.distance_part == 0.0


def test_gap_hand_value_at_origin(example3_2):
    # Shift of the origin lands at e, feasible, so the distance term
    # vanishes and the gap is half the squared operator norm.
    out = gap_N(example3_2, np.zeros(2), rho=1.0)
    assert out.value == pytest.approx(1.0)


def test_gap_keeps_its_digits_where_rho_squared_T_squared_is_large():
    # 999 coordinates sit on the upper bound with T in [-2e4, -1e4] pushing
    # out of the box: each adds at least 1e8 to ||rho T||^2 and to the
    # squared distance but nothing to the gap, which is 5e-13 from the one
    # free coordinate.
    n = 1000
    b = 1.0 + 1e4 * np.random.default_rng(0).uniform(1.0, 2.0, n)
    b[0] = 0.5 - 1e-6
    problem = GviProblem(dim=n, T=lambda u: u - b, K=Box(np.zeros(n), np.ones(n)))
    u = np.ones(n)
    u[0] = 0.5
    exact = box_gap(problem.T, np.zeros(n), np.ones(n), u, 1.0)
    assert exact == pytest.approx(5e-13, rel=1e-6, abs=0.0)
    assert gap_N(problem, u, rho=1.0).value == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_gap_requires_positive_rho(example3_2):
    with pytest.raises(ValueError):
        gap_N(example3_2, np.zeros(2), rho=0.0)


def test_gap_zero_at_converged_outputs(example3_10, example4_10):
    for problem, rho in ((example3_10, 0.2), (example4_10, 0.5)):
        report = solve_projection(problem, SolveConfig(rho=rho, tol=1e-10))
        assert abs(gap_N(problem, report.solution, rho).value) <= 1e-9


def test_gap_descent_immediate_at_solution(example4_10):
    report = solve_gap_descent(example4_10, SolveConfig(rho=0.5, alpha=0.1), u0=np.ones(10))
    assert report.converged
    assert report.iterations == 0


def test_gap_descent_converges_with_moderate_decrease_constant(example4_10):
    report = solve_gap_descent(example4_10, SolveConfig(rho=0.5, alpha=0.1))
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_gap_descent_stalls_when_decrease_constant_exceeds_curvature(example4_10):
    # The search direction concentrates on the flattest coordinate,
    # where the attainable decrease rate is rho times the smallest
    # diagonal entry (0.05 here); alpha = 0.3 is then unreachable.
    with pytest.raises(StallError):
        solve_gap_descent(example4_10, SolveConfig(rho=0.5, alpha=0.3))


def test_gap_descent_trace_strictly_decreasing(example3_10):
    report = solve_gap_descent(example3_10, SolveConfig(rho=0.2, alpha=0.3))
    assert report.converged
    start = gap_N(example3_10, np.zeros(example3_10.dim), 0.2).value
    gaps = [start] + [rec.info["gap"] for rec in report.trace[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_gap_descent_requires_identity_g():
    prob = GviProblem(dim=2, T=lambda u: u, K=NonnegOrthant(), g=lambda u: 2.0 * u,
                      g_inverse=lambda y: 0.5 * y)
    with pytest.raises(CapabilityError):
        solve_gap_descent(prob, SolveConfig(rho=0.5))


def test_regularized_gap_zero_on_first_printed_branch_point():
    val = regularized_gap(p1_operator(), p1_g(0.5), P1_K, np.array([0.75]), np.array([0.5]), 1.0)
    assert abs(val.value) <= 1e-14


def test_regularized_gap_zero_on_second_printed_branch_point():
    z = 2.0
    val = regularized_gap(p1_operator(), p1_g(z), P1_K, np.array([1.0 - z]), np.array([z]), 1.0)
    assert abs(val.value) <= 1e-14


def test_regularized_gap_zero_operator_feasible():
    op = ControlledOperator(T2=lambda u, z: np.zeros(1))
    val = regularized_gap(op, None, NonnegOrthant(), np.array([2.0]), np.zeros(1), 1.0)
    assert val.value == 0.0


def test_regularized_gap_matches_printed_piecewise_formula():
    rng = np.random.default_rng(0)
    op = p1_operator()
    for _ in range(200):
        u = float(rng.uniform(-2.0, 3.0))
        z = float(rng.uniform(-2.0, 2.0))
        val = regularized_gap(op, p1_g(z), P1_K, np.array([u]), np.array([z]), 1.0)
        assert val.value == pytest.approx(p1_h1(u, z), abs=1e-12)


def test_regularized_gap_nonnegative_on_feasible_samples():
    rng = np.random.default_rng(1)
    op = p1_operator()
    for u, z in p1_feasible_samples(300, rng):
        for rho in (0.5, 1.0, 2.0):
            val = regularized_gap(op, p1_g(z), P1_K, np.array([u]), np.array([z]), rho)
            assert val.value >= -1e-10


def test_regularized_gap_zero_exactly_on_solution_branches():
    op = p1_operator()
    for branch in p1_solution_branches(50):
        for u, z in branch:
            val = regularized_gap(op, p1_g(z), P1_K, np.array([u]), np.array([z]), 1.0)
            assert abs(val.value) <= 1e-10
            g_here = p1_g(z)(np.array([u]))
            assert np.linalg.norm(g_here - val.minimizer_point) <= 1e-8


def test_regularized_gap_positive_off_solution_set():
    op = p1_operator()
    val = regularized_gap(op, p1_g(0.0), P1_K, np.array([2.0]), np.zeros(1), 1.0)
    assert val.value > 1e-3


def test_regularized_gap_gradient_zero_operator():
    op = ControlledOperator(T2=lambda u, z: np.zeros(2), jac_state=lambda u, z: np.zeros((2, 2)))
    grad = regularized_gap_gradient(op, None, NonnegOrthant(), np.array([1.0, 2.0]), np.zeros(1), 1.0)
    np.testing.assert_allclose(grad, np.zeros(2))


def test_regularized_gap_gradient_matches_finite_differences():
    op = p1_operator()
    for rho in (1.0, 0.5):
        z_vec = np.array([0.5])
        g = p1_g(0.5)
        grad = regularized_gap_gradient(
            op, g, P1_K, np.array([0.6]), z_vec, rho, g_jacobian=lambda u: np.array([[1.0]])
        )
        fd = fd_gradient(
            lambda u: regularized_gap(op, g, P1_K, u, z_vec, rho).value, np.array([0.6])
        )
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_regularized_gap_gradient_linear_unconstrained_reduction():
    op = ControlledOperator(T2=lambda u, z: u.copy(), jac_state=lambda u, z: np.eye(3))
    u = np.array([0.3, -1.2, 2.0])
    grad = regularized_gap_gradient(op, None, WholeSpace(), u, np.zeros(1), 1.0)
    np.testing.assert_allclose(grad, u, atol=1e-12)


def test_regularized_gap_gradient_requires_jacobians():
    with pytest.raises(CapabilityError):
        regularized_gap_gradient(
            lambda u, z: u, None, NonnegOrthant(), np.ones(2), np.zeros(1), 1.0
        )


def test_gap_residual_equivalence_on_branches():
    # Zero gap exactly where the shifted projection fixes the g-value.
    op = p1_operator()
    rng = np.random.default_rng(2)
    branch1, branch2 = p1_solution_branches(25)
    on_set = np.vstack([branch1, branch2])
    off_set = p1_feasible_samples(50, rng)
    from gvikit.sets import project

    for u, z in np.vstack([on_set, off_set]):
        g = p1_g(z)
        val = regularized_gap(op, g, P1_K, np.array([u]), np.array([z]), 1.0)
        gu = g(np.array([u]))
        shifted = gu - op.T2(np.array([u]), np.array([z]))
        fp_gap = np.linalg.norm(gu - project(P1_K, shifted))
        assert (abs(val.value) <= 1e-10) == (fp_gap <= 1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="gap descent at a fixed rho = 0.15 runs all 1000 iterations on example3 (n = 100) "
    "and ends at a natural residual of 3.4e-3 without raising; the modified descent of "
    "ROADMAP item 9 is meant to fix it",
)
def test_gap_descent_converges_on_example3_at_fixed_rho():
    problem = build_problem(ProblemSpec("example3", n=100))
    report = solve_gap_descent(problem, SolveConfig(rho=0.15))
    assert report.converged


@pytest.mark.parametrize("spec", [("example3", 10), ("example3", 100), ("example3", 1000), ("example4", 10),
                                  ("example4", 100), ("example4", 1000), ("example4", 10000),
                                  ("example4", 100000)],
                         ids=lambda spec: f"{spec[0]}-{spec[1]}")
def test_gap_descent_converges_at_the_default_rho(spec):
    # rho None runs at rho_ref from the first difference at u_0, and the
    # stop ||d|| <= tol is the projection residual at that rho.
    problem = build_problem(ProblemSpec(*spec))
    config = SolveConfig()
    report = solve_gap_descent(problem, config)
    assert report.converged
    lo, hi = np.zeros(problem.dim), np.ones(problem.dim)
    assert box_projection_residual(problem.T, lo, hi, report.solution, report.details["rho"]) <= config.tol
