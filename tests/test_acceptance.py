"""End-to-end acceptance gate.

One test per shipped guarantee: reference iteration counts, known-solution
convergence across the solver registry, obstacle error tables, brute-force
oracle agreement, gap identities, projection properties, scheme reductions,
convexity certifications, and Lyapunov descent diagnostics.
"""

import time

import numpy as np
import pytest

from oracles import (
    fd_gradient,
    grid_search_box2,
    p1_feasible_samples,
    p1_solution_branches,
)

from gvikit.auxiliary import (
    ControlledOperator,
    regularized_gap,
    regularized_gap_gradient,
    solve_gap_descent,
    solve_three_step,
)
from gvikit.registry import ALGORITHMS, ProblemSpec, build_problem
from gvikit.convexity_lab import (
    builtin_functions,
    check_exp_convex,
    check_gradient_char,
    check_hos_convex,
    check_parallelogram,
)
from gvikit.core import SolveConfig, residual
from gvikit.equilibrium import (
    EquilibriumProblem,
    HigherOrderProblem,
    VarLikeProblem,
    projection_aux_oracle,
    solve_eq_inertial,
    solve_eq_predictor_corrector,
    solve_higher_order,
    solve_varlike,
)
from gvikit.obstacle_spline import (
    analytic_solution,
    benchmark_problem,
    max_error,
    solve_grid,
    spline_fit,
)
from gvikit.sets import (
    Box,
    Halfspace,
    Hyperplane,
    IntersectionWithHyperplane,
    NonnegOrthant,
    Simplex,
    WholeSpace,
    project,
)
from gvikit.solvers import (
    solve_dynamical,
    solve_extragradient,
    solve_projection,
    solve_two_step,
)
from gvikit.wiener_hopf import (
    solve_double_projection_basic,
    solve_double_projection_optimal,
    solve_whe,
)

DP_CONFIG = SolveConfig(tol=1e-7, max_iters=1000, sigma=0.5, gamma=0.8)

OPTIMAL_TARGETS = [
    ("example2", None, 96),
    ("example3", 10, 44),
    ("example3", 20, 47),
    ("example3", 50, 49),
    ("example3", 100, 50),
    ("example4", 10, 35),
    ("example4", 20, 37),
    ("example4", 50, 40),
    ("example4", 100, 43),
]

BASIC_TARGETS = [
    ("example3", 10, 47),
    ("example3", 20, 50),
    ("example3", 50, 52),
    ("example3", 100, 53),
]


def test_optimal_double_projection_reproduces_reference_counts():
    start = time.perf_counter()
    for pid, n, target in OPTIMAL_TARGETS:
        problem = build_problem(ProblemSpec(pid, n=n))
        report = solve_double_projection_optimal(problem, DP_CONFIG)
        assert report.converged, (pid, n)
        assert abs(report.iterations - target) <= 0.3 * target, (pid, n, report.iterations)
    assert time.perf_counter() - start < 5.0


def test_basic_double_projection_contrast():
    report = solve_double_projection_basic(build_problem(ProblemSpec("example2")), DP_CONFIG)
    assert not report.converged
    assert report.iterations == 1000
    for pid, n, target in BASIC_TARGETS:
        problem = build_problem(ProblemSpec(pid, n=n))
        run = solve_double_projection_basic(problem, DP_CONFIG)
        assert run.converged, (pid, n)
        assert abs(run.iterations - target) <= 0.3 * target, (pid, n, run.iterations)


KNOWN_SOLUTION_RUNS = [
    ("projection", lambda p: solve_projection(p, SolveConfig(rho=0.5))),
    ("extragradient", lambda p: solve_extragradient(p, SolveConfig(rho=0.5))),
    ("two-step-midpoint", lambda p: solve_two_step(p, SolveConfig(rho=0.5, lam=0.5, xi=0.5))),
    ("whe", lambda p: solve_whe(p, SolveConfig(rho=0.5))),
    ("dp-optimal", lambda p: solve_double_projection_optimal(p, DP_CONFIG)),
    ("three-step", lambda p: solve_three_step(p, SolveConfig(rho=0.5))),
    ("gap-descent", lambda p: solve_gap_descent(p, SolveConfig(rho=0.5, alpha=0.1))),
    ("dynamical-forward", lambda p: solve_dynamical(p, SolveConfig(rho=0.5),
                                                    variant="ForwardT")),
]


@pytest.mark.parametrize("label,run", KNOWN_SOLUTION_RUNS, ids=[r[0] for r in KNOWN_SOLUTION_RUNS])
def test_known_solution_convergence(label, run, example4_10):
    report = run(example4_10)
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the basic corrector's step length shrinks with the squared residual on "
    "this diagonal instance (observed residual ~ iterations^-1/2), so reaching "
    "1e-6 would take ~3e12 iterations; the hyperplane-projection corrector is "
    "the attainable variant",
)
def test_known_solution_convergence_basic_double_projection(example4_10):
    config = SolveConfig(tol=1e-7, max_iters=20000, sigma=0.5, gamma=0.8)
    report = solve_double_projection_basic(example4_10, config)
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_obstacle_error_table_and_convergence_order():
    prob = benchmark_problem()
    sizes = (15, 31, 63, 127)
    errs = [max_error(prob, n) for n in sizes]
    assert 0.5 * 1.23e-3 <= errs[0] <= 2.0 * 1.23e-3
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert 1.8 <= a / b <= 4.5
    # Property fallbacks hold regardless of table agreement.
    s = solve_grid(prob, 31)
    pp = spline_fit(prob, s)
    h = pp.x[1] - pp.x[0]
    for i in range(1, pp.x.size - 1):
        left, right = pp.c[:, i - 1], pp.c[:, i]
        assert abs(((left[0] * h + left[1]) * h + left[2]) * h + left[3] - right[3]) <= 1e-8
        assert abs((3 * left[0] * h + 2 * left[1]) * h + left[2] - right[2]) <= 1e-8
        assert abs(6 * left[0] * h + 2 * left[1] - 2 * right[1]) <= 1e-8
    step = 1e-6
    assert analytic_solution(0.0) == 0.0
    assert abs(analytic_solution(step) - analytic_solution(-step)) / (2 * step) <= 1e-8
    assert abs(analytic_solution(1 + step) - analytic_solution(1 - step)) / (2 * step) <= 1e-8


ORACLE_CONFIGS = {
    "example3": SolveConfig(rho=0.15, alpha=0.1, tol=1e-8),
    "example4": SolveConfig(rho=0.5, alpha=0.1, tol=1e-8),
}


def test_converged_solver_outputs_match_grid_oracle():
    # The step-length-limited basic corrector is the only run allowed
    # to time out, and only on the diagonal instance.
    allowed_nonconverged = {("example4", "dp-basic")}
    for pid, config in ORACLE_CONFIGS.items():
        problem = build_problem(ProblemSpec(pid, n=2))
        oracle = grid_search_box2(problem.T)
        for name, solver in ALGORITHMS.items():
            report = solver(problem, config)
            if not report.converged:
                assert (pid, name) in allowed_nonconverged, (pid, name)
                continue
            assert np.max(np.abs(report.solution - oracle)) <= 2e-4, (pid, name)


P1_K = Box(np.array([1.0]), np.array([np.inf]))
P1_OP = ControlledOperator(
    T2=lambda u, z: np.atleast_1d(u[0] + z[0] - 1.0),
    jac_state=lambda u, z: np.array([[1.0]]),
)


def _p1_g(z):
    return lambda u: np.atleast_1d(u[0] + z * z)


def test_gap_identities_on_control_instance():
    rng = np.random.default_rng(5)
    for u, z in p1_feasible_samples(1000, rng):
        for rho in (0.5, 1.0, 2.0):
            val = regularized_gap(P1_OP, _p1_g(z), P1_K, np.array([u]), np.array([z]), rho)
            assert val.value >= -1e-10
    for branch in p1_solution_branches(50):
        for u, z in branch:
            val = regularized_gap(P1_OP, _p1_g(z), P1_K, np.array([u]), np.array([z]), 1.0)
            assert abs(val.value) <= 1e-10
    for u, z in ((2.0, 0.0), (3.0, 0.5), (0.5, -1.5)):
        val = regularized_gap(P1_OP, _p1_g(z), P1_K, np.array([u]), np.array([z]), 1.0)
        assert val.value > 1e-6
    # Gradient vs finite differences away from the projection kink.
    for u0, z0, rho in ((0.6, 0.5, 1.0), (0.6, 0.5, 0.5), (-0.5, 2.0, 0.5), (1.5, 0.25, 1.0)):
        g = _p1_g(z0)
        z_vec = np.array([z0])
        grad = regularized_gap_gradient(P1_OP, g, P1_K, np.array([u0]), z_vec, rho,
                                        g_jacobian=lambda u: np.array([[1.0]]))
        fd = fd_gradient(lambda u: regularized_gap(P1_OP, g, P1_K, u, z_vec, rho).value,
                         np.array([u0]))
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_projection_property_suite():
    rng = np.random.default_rng(0)
    dim = 4
    lo = -np.abs(rng.standard_normal(dim))
    hi = np.abs(rng.standard_normal(dim)) + 0.5
    a = rng.standard_normal(dim)
    box = Box(np.zeros(dim), np.ones(dim))
    variants = [
        WholeSpace(),
        NonnegOrthant(),
        Box(lo, hi),
        Simplex(total=2.0),
        Halfspace(a, 0.5),
        Hyperplane(a, 0.25),
        IntersectionWithHyperplane(box, np.ones(dim), 1.0),
    ]
    for K in variants:
        violations = 0
        for _ in range(1000):
            x = rng.standard_normal(dim) * 2.0
            y = rng.standard_normal(dim) * 2.0
            px, py = project(K, x), project(K, y)
            if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-12:
                violations += 1
            if np.linalg.norm(px - py) ** 2 > float((px - py) @ (x - y)) + 1e-10:
                violations += 1
            if np.linalg.norm(project(K, px) - px) > 1e-12:
                violations += 1
            if float((x - px) @ (py - px)) > 1e-10:
                violations += 1
        assert violations == 0, type(K).__name__


def test_scheme_reductions_coincide(example4_5):
    cfg = SolveConfig(rho=0.5, beta_step=0.5, tol=1e-16, max_iters=10)
    T, K = example4_5.T, example4_5.K

    ep = EquilibriumProblem(dim=5, F=lambda u, y: float(np.asarray(T(u)) @ (y - u)), K=K,
                            aux_oracle=projection_aux_oracle(T, K))
    pc = solve_eq_predictor_corrector(ep, cfg)
    two_stage = solve_three_step(example4_5, SolveConfig(rho=0.5, mu_step=0.0, beta_step=0.5,
                                                         tol=1e-16, max_iters=10))
    assert np.max(np.abs(pc.solution - two_stage.solution)) <= 1e-10

    vp = VarLikeProblem(dim=5, T=T, K=K, eta=lambda y1, y2: y1 - y2, E_grad=lambda y: y,
                        aux_oracle=projection_aux_oracle(T, K))
    vl = solve_varlike(vp, cfg)
    plain = solve_projection(example4_5, cfg)
    assert np.max(np.abs(vl.solution - plain.solution)) <= 1e-10

    hp = HigherOrderProblem(base=example4_5, p=2.0, mu=0.0)
    ho = solve_higher_order(hp, cfg)
    assert np.array_equal(ho.solution, two_stage.solution)

    ts = solve_two_step(example4_5, SolveConfig(rho=0.5, beta_step=0.5, tol=1e-16, max_iters=10,
                                                lam=0.0, xi=0.0))
    assert np.max(np.abs(ts.solution - plain.solution)) <= 1e-10


@pytest.mark.parametrize(("pid", "n", "rho", "h", "iterations"), [
    ("example3", 2000, 0.15, 1.0, 107), ("example3", 2000, 0.15, 0.5, 161),
    ("example4", 100_000, 0.5, 1.0, 52), ("example4", 100_000, 0.5, 0.5, 79),
    ("example2", None, 0.1, 1.0, 419), ("example2", None, 0.1, 0.5, 586),
])
def test_explicit_dynamical_is_the_projection_step_at_rho_h_over_1_plus_h(pid, n, rho, h, iterations):
    # The explicit step P_K[g(u) - rho*h/(1+h)*T(u)] is the projection
    # step at rho' = rho*h/(1+h), and the run certifies tol at rho'.
    problem = build_problem(ProblemSpec(pid) if n is None else ProblemSpec(pid, n=n))
    explicit = solve_dynamical(problem, SolveConfig(rho=rho, h=h), variant="ExplicitT")
    plain = solve_projection(problem, SolveConfig(rho=rho * h / (1.0 + h)))
    assert explicit.converged
    assert explicit.iterations == plain.iterations == iterations
    assert explicit.solution.tobytes() == plain.solution.tobytes()
    assert explicit.details["rho"] == explicit.details["rho_ref"] == rho * h / (1.0 + h)
    assert np.linalg.norm(residual(problem, explicit.solution, explicit.details["rho"])) <= 1e-7


@pytest.mark.parametrize("pid, n", [("example2", None), ("example3", 100), ("example4", 100)])
def test_explicit_dynamical_with_a_learned_rho_is_the_projection_run(pid, n):
    # Under rho=None the learned stage rho is the step itself, so h has no effect.
    problem = build_problem(ProblemSpec(pid) if n is None else ProblemSpec(pid, n=n))
    plain = solve_projection(problem)
    for h in (1.0, 0.3):
        explicit = solve_dynamical(problem, SolveConfig(h=h), variant="ExplicitT")
        assert explicit.converged
        assert explicit.iterations == plain.iterations
        assert explicit.solution.tobytes() == plain.solution.tobytes()
        assert (explicit.details["rho"], explicit.details["rho_ref"]) == (plain.details["rho"], plain.details["rho_ref"])


@pytest.mark.parametrize("pid, n", [("example3", 10), ("example3", 100), ("example4", 10), ("example4", 100)])
def test_higher_order_implicit_is_the_resolvent_step(pid, n):
    # The power term's gradient vanishes at v = anchor, so at the implicit
    # fixed point u+ = (I + rho*T + N_K)^{-1}(u_n) whatever p and nu are:
    # the eq-inertial step with alpha = 0 and the projection oracle.
    base = build_problem(ProblemSpec(pid, n=n))
    cfg = SolveConfig(rho=0.1)
    ep = EquilibriumProblem(dim=base.dim, F=lambda u, y: float(base.T(u) @ (y - u)), K=base.K,
                            aux_oracle=projection_aux_oracle(base.T, base.K))
    resolvent = solve_eq_inertial(ep, cfg)
    assert resolvent.converged
    for p in (1.5, 2.0, 3.0, 4.0):
        for nu in (0.0, 0.5, 2.0):
            hp = HigherOrderProblem(base=base, p=p, mu=0.5, nu=nu)
            implicit = solve_higher_order(hp, cfg, mode="implicit")
            assert implicit.iterations == resolvent.iterations
            assert np.array_equal(implicit.solution, resolvent.solution)


def test_higher_order_implicit_converges_on_example4_at_p_below_two():
    # An inner map through the p < 2 power subproblem is not Lipschitz at
    # its fixed point and stalls here; the resolvent map contracts at rho*L.
    base = build_problem(ProblemSpec("example4", n=100))
    cfg = SolveConfig(rho=0.1)
    report = solve_higher_order(HigherOrderProblem(base=base, p=1.5, mu=0.5), cfg, mode="implicit")
    assert report.converged
    assert report.iterations == 145
    assert np.linalg.norm(residual(base, report.solution, 0.1)) <= cfg.tol


def test_convexity_exact_cases():
    registry = builtin_functions()
    curve = check_hos_convex(registry["quadratic"], samples=500)
    grad = check_gradient_char(registry["quadratic"], samples=500)
    assert curve.passed and curve.worst_violation <= 1e-8
    assert grad.passed and grad.worst_violation <= 1e-8
    identity = check_parallelogram(2.0, 1.0, samples=1000, dim=3)
    assert identity.passed
    assert identity.details["equality_violation"] <= 1e-12
    concave = check_exp_convex(registry["erf-sqrt"], samples=1000, concave=True)
    assert concave.passed


def test_lyapunov_descent_diagnostics(example3_10):
    forward = solve_dynamical(example3_10, SolveConfig(rho=0.15), variant="ForwardT")
    assert forward.converged
    prev = forward.trace[0]
    for rec in forward.trace[1:]:
        assert rec.lyapunov - (prev.lyapunov - rec.info["step_gsq"]) <= 1e-8
        prev = rec

    for p, mu in ((2.0, 0.0), (3.0, 0.1)):
        hp = HigherOrderProblem(base=example3_10, p=p, mu=mu)
        implicit = solve_higher_order(hp, SolveConfig(rho=0.1), mode="implicit")
        assert implicit.converged
        prev = implicit.trace[0]
        for rec in implicit.trace[1:]:
            assert rec.lyapunov - (prev.lyapunov - rec.info["step_sq"]) <= 1e-8
            prev = rec
