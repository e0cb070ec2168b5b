"""Oracle-driven equilibrium, variational-like, and power-regularized solvers."""

import numpy as np
import pytest
from oracles import box_projection_residual

from gvikit import (
    EquilibriumProblem,
    GviProblem,
    HigherOrderProblem,
    ProblemSpec,
    SolveConfig,
    VarLikeProblem,
    build_problem,
    diagonal_kernel_oracle,
    projection_aux_oracle,
    residual,
    solve_eq_inertial,
    solve_eq_predictor_corrector,
    solve_higher_order,
    solve_projection,
    solve_three_step,
    solve_varlike,
)
from gvikit.equilibrium import _half_step
from gvikit.errors import (
    CapabilityError,
    InnerLoopError,
    OracleContractError,
    UnsupportedSetError,
)
from gvikit.sets import Box, Halfspace, NonnegOrthant, Simplex, WholeSpace, distance, project


def wrap_equilibrium(problem):
    T, K = problem.T, problem.K
    return EquilibriumProblem(
        dim=problem.dim,
        F=lambda u, y: float(np.asarray(T(u)) @ (y - u)),
        K=K,
        aux_oracle=projection_aux_oracle(T, K),
    )


def test_oracle_contract_enforced():
    ep = EquilibriumProblem(
        dim=3,
        F=lambda u, y: 0.0,
        K=NonnegOrthant(),
        aux_oracle=lambda anchor, center, rho: np.asarray(center) - 10.0,
    )
    with pytest.raises(OracleContractError):
        solve_eq_predictor_corrector(ep, SolveConfig(rho=1.0))


def test_eq_pc_reduces_to_three_step(example3_10):
    ep = wrap_equilibrium(example3_10)
    cfg = SolveConfig(rho=0.2, beta_step=0.2, tol=1e-16, max_iters=10)
    eq_run = solve_eq_predictor_corrector(ep, cfg)
    ts_run = solve_three_step(example3_10, SolveConfig(rho=0.2, mu_step=0.0, beta_step=0.2,
                                                       tol=1e-16, max_iters=10))
    np.testing.assert_allclose(eq_run.solution, ts_run.solution, rtol=0.0, atol=1e-10)


def test_eq_pc_converges_on_strongly_monotone_bifunction():
    n = 5
    e = np.ones(n)
    K = Box(np.zeros(n), np.ones(n))
    T = lambda u: u - e
    ep = EquilibriumProblem(
        dim=n,
        F=lambda u, y: float((u - e) @ (y - u)),
        K=K,
        aux_oracle=projection_aux_oracle(T, K),
    )
    report = solve_eq_predictor_corrector(ep)
    assert report.converged
    assert np.max(np.abs(report.solution - e)) <= 1e-6


def test_eq_pc_zero_bifunction_stops_at_a_fixed_start():
    K = Box(np.zeros(3), np.ones(3))
    ep = EquilibriumProblem(
        dim=3,
        F=lambda u, y: 0.0,
        K=K,
        aux_oracle=projection_aux_oracle(lambda u: np.zeros(3), K),
    )
    report = solve_eq_predictor_corrector(ep)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_allclose(report.solution, np.zeros(3))


@pytest.mark.parametrize("n", [10, 100])
def test_eq_pc_converged_means_a_small_residual_at_the_default_rho(n):
    base = build_problem(ProblemSpec("example3", n=n))
    config = SolveConfig()
    report = solve_eq_predictor_corrector(wrap_equilibrium(base), config)
    if report.converged:
        rho = report.details["rho"]
        assert box_projection_residual(base.T, base.K.lo, base.K.hi, report.solution, rho) <= config.tol


def test_eq_inertial_matches_known_solution(example3_10):
    ep = wrap_equilibrium(example3_10)
    report = solve_eq_inertial(ep, SolveConfig(rho=0.1))
    assert report.converged
    assert np.max(np.abs(report.solution - example3_10.known_solution)) <= 1e-5


def test_eq_inertial_extrapolation_reaches_same_point(example3_10):
    ep = wrap_equilibrium(example3_10)
    plain = solve_eq_inertial(ep, SolveConfig(rho=0.1))
    pushed = solve_eq_inertial(ep, SolveConfig(rho=0.1, alpha_schedule=0.3))
    assert pushed.converged
    assert np.max(np.abs(pushed.solution - plain.solution)) <= 1e-6
    assert all(rec.info["alpha_n"] == 0.3 for rec in pushed.trace[1:] if rec.info)


def test_eq_inertial_inner_cap_raises(example3_10):
    ep = wrap_equilibrium(example3_10)
    with pytest.raises(InnerLoopError, match="eq-inertial"):
        solve_eq_inertial(ep, SolveConfig(rho=0.1, inner_max_iters=1))


def test_eq_inertial_inner_loop_error_names_rho(example4_10):
    # The oracle default rho = 1 meets example4's L = 1: the inner map does
    # not contract, and the error says that rho is the cause.
    with pytest.raises(InnerLoopError, match=r"eq-inertial.*ratio.*rho\*L >= 1.*smaller rho"):
        solve_eq_inertial(wrap_equilibrium(example4_10), SolveConfig())


def _counted_T(problem):
    calls = [0]

    def T(u):
        calls[0] += 1
        return problem.T(u)

    return calls, T


@pytest.mark.parametrize("solver, wrap, evals_per_iter, evals_at_start", [
    (solve_eq_predictor_corrector, "equilibrium", 2, 1),
    (solve_varlike, "varlike", 1, 0),
])
def test_oracle_solvers_default_rho_to_one_without_a_probe(example4_10, solver, wrap, evals_per_iter,
                                                           evals_at_start):
    calls, T = _counted_T(example4_10)
    counted = GviProblem(dim=example4_10.dim, T=T, K=example4_10.K)
    problem = wrap_equilibrium(counted) if wrap == "equilibrium" else wrap_varlike(counted)
    report = solver(problem, SolveConfig())
    assert report.details["rho"] == 1.0
    assert calls[0] == evals_per_iter * report.iterations + evals_at_start
    assert solver(problem, SolveConfig(rho=0.3)).details["rho"] == 0.3


def test_eq_inertial_rejects_weight_outside_unit_interval(example3_10):
    ep = wrap_equilibrium(example3_10)
    with pytest.raises(ValueError):
        solve_eq_inertial(ep, SolveConfig(rho=0.1, alpha_schedule=1.0))


def test_eq_zero_step_sizes_rejected(example3_10):
    ep = wrap_equilibrium(example3_10)
    with pytest.raises(ValueError):
        solve_eq_predictor_corrector(ep, SolveConfig(rho=0.2, beta_step=0.0))


def test_equilibrium_dim_validation():
    with pytest.raises(ValueError):
        EquilibriumProblem(dim=0, F=lambda u, y: 0.0, K=NonnegOrthant(),
                           aux_oracle=lambda a, c, r: c)


def wrap_varlike(problem):
    T, K = problem.T, problem.K
    return VarLikeProblem(
        dim=problem.dim,
        T=T,
        K=K,
        eta=lambda y1, y2: y1 - y2,
        E_grad=lambda y: y,
        aux_oracle=projection_aux_oracle(T, K),
    )


def test_varlike_difference_kernel_reduces_to_projection(example4_5):
    vp = wrap_varlike(example4_5)
    cfg = SolveConfig(rho=0.5, tol=1e-16, max_iters=10)
    vl_run = solve_varlike(vp, cfg)
    pj_run = solve_projection(example4_5, cfg)
    np.testing.assert_allclose(vl_run.solution, pj_run.solution, rtol=0.0, atol=1e-10)


def test_varlike_zero_operator_stationary(zero_operator_problem):
    vp = wrap_varlike(zero_operator_problem)
    report = solve_varlike(vp, SolveConfig(rho=0.5))
    assert report.converged
    assert report.iterations == 1
    np.testing.assert_allclose(report.solution, np.zeros(3))


def test_varlike_diagonal_kernel_agrees_with_projection(example3_2):
    vp = VarLikeProblem(
        dim=2,
        T=example3_2.T,
        K=example3_2.K,
        eta=lambda y1, y2: y1 - y2,
        E_grad=lambda y: np.array([1.0, 2.0]) * y,
        aux_oracle=diagonal_kernel_oracle(example3_2.T, example3_2.K, [1.0, 2.0]),
    )
    scaled = solve_varlike(vp, SolveConfig(rho=0.2))
    plain = solve_projection(example3_2, SolveConfig(rho=0.2))
    assert scaled.converged
    assert np.max(np.abs(scaled.solution - plain.solution)) <= 1e-5


def test_varlike_kernel_must_vanish_on_diagonal():
    with pytest.raises(ValueError, match="vanish"):
        VarLikeProblem(
            dim=2,
            T=lambda u: u,
            K=NonnegOrthant(),
            eta=lambda y1, y2: y1 - y2 + 1.0,
            E_grad=lambda y: y,
            aux_oracle=lambda a, c, r: c,
        )


def test_varlike_warns_on_asymmetric_kernel():
    with pytest.warns(UserWarning, match="antisymmetric"):
        VarLikeProblem(
            dim=2,
            T=lambda u: u,
            K=NonnegOrthant(),
            eta=lambda y1, y2: (y1 - y2) ** 2,
            E_grad=lambda y: y,
            aux_oracle=lambda a, c, r: c,
        )


def test_diagonal_kernel_oracle_validation():
    with pytest.raises(ValueError):
        diagonal_kernel_oracle(lambda u: u, NonnegOrthant(), [1.0, 0.0])
    from gvikit.sets import Simplex

    with pytest.raises(UnsupportedSetError):
        diagonal_kernel_oracle(lambda u: u, Simplex(total=1.0), [1.0, 1.0])


def test_higher_order_degenerates_to_two_projection_steps(example4_5):
    # With nu = 0 every half-step is the projection step P_K[u - rho*T(u)]
    # itself, at tau = 1 whatever p is, so the iterates agree to the bit.
    cfg = SolveConfig(rho=0.5, tol=1e-16, max_iters=10)
    ts_run = solve_three_step(example4_5, SolveConfig(rho=0.5, mu_step=0.0, beta_step=0.5,
                                                      tol=1e-16, max_iters=10))
    plain = solve_projection(example4_5, SolveConfig(rho=0.5, tol=1e-16, max_iters=20))
    assert plain.iterations == 20
    for p in (1.5, 2.0, 3.0):
        ho_run = solve_higher_order(HigherOrderProblem(base=example4_5, p=p, mu=0.0), cfg)
        assert np.array_equal(ho_run.solution, ts_run.solution), p
        assert np.array_equal(ho_run.solution, plain.solution), p


def test_higher_order_cubic_penalty_converges_with_margin(example4_5):
    hp = HigherOrderProblem(base=example4_5, p=3.0, mu=0.1)
    assert hp.nu == 0.1
    report = solve_higher_order(hp, SolveConfig(rho=0.5))
    assert report.converged
    u = report.solution
    Tu = example4_5.T(u)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, size=(1000, 5))
    diffs = v - u
    margins = diffs @ Tu + hp.mu * np.linalg.norm(diffs, axis=1) ** hp.p
    assert margins.min() >= -1e-8


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("K", [Box(np.zeros(6), np.ones(6)), Simplex(total=1.0), WholeSpace(),
                               Halfspace(np.arange(1.0, 7.0), 2.0)], ids=lambda K: type(K).__name__)
def test_higher_order_subproblem_meets_its_optimality_condition(K, p):
    # The half-step from a, given T(a), minimizes the subproblem anchored and
    # centered at a: v = P_K[(q + lam*a)/(1 + lam)] with q = a - rho*T(a) and
    # lam = nu*||v - a||^(p-2), the penalty's gradient being 0 at v = a.
    # Outside WholeSpace a quarter of the anchors lie outside K, as two_step's
    # first anchor may.  The half-step itself never evaluates T.
    rng = np.random.default_rng(11)
    n, rho, config = 6, 0.1, SolveConfig()
    M = rng.standard_normal((n, n))
    base = GviProblem(dim=n, T=lambda u: M @ u - 1.0, K=K)
    blind = GviProblem(dim=n, T=lambda u: pytest.fail("the half-step evaluated T"), K=K)
    problem = HigherOrderProblem(base=blind, p=p, mu=0.5)
    for draw in range(40):
        anchor = 2.0 * rng.standard_normal(n)
        while draw % 4 == 0 and distance(K, anchor) == 0 and not isinstance(K, WholeSpace):
            anchor = 2.0 * rng.standard_normal(n)
        if draw % 4:
            anchor = project(K, anchor)
        t = base.T(anchor)
        v = _half_step(problem, anchor, t, rho, config)
        assert distance(K, v) <= 1e-12
        q = anchor - rho * t
        s = np.linalg.norm(v - anchor)
        lam = problem.nu * s ** (p - 2.0) if s > 0 else 0.0
        fixed = project(K, (q + lam * anchor) / (1.0 + lam))
        bound = 10.0 * config.inner_tol * max(1.0, np.linalg.norm(q - anchor))
        assert np.linalg.norm(v - fixed) <= bound


def test_higher_order_implicit_converges_at_p_below_two(example3_10):
    hp = HigherOrderProblem(base=example3_10, p=1.5, mu=0.5)
    config = SolveConfig(rho=0.1)
    report = solve_higher_order(hp, config, mode="implicit")
    assert report.converged
    assert np.max(np.abs(report.solution - example3_10.known_solution)) <= 1e-4
    assert np.linalg.norm(residual(example3_10, report.solution, 0.1)) <= config.tol


@pytest.mark.parametrize("mode, iterations", [("two_step", 33), ("implicit", 79)])
def test_higher_order_quartic_penalty_iterations(example3_10, mode, iterations):
    hp = HigherOrderProblem(base=example3_10, p=4.0, mu=0.5)
    report = solve_higher_order(hp, SolveConfig(rho=0.1), mode=mode)
    assert report.converged
    assert report.iterations == iterations


def test_higher_order_zero_operator_stationary(zero_operator_problem):
    hp = HigherOrderProblem(base=zero_operator_problem, p=3.0, mu=0.1)
    report = solve_higher_order(hp, SolveConfig(rho=0.5))
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_allclose(report.solution, np.zeros(3))


def test_higher_order_needs_identity_g():
    base = GviProblem(dim=2, T=lambda u: u, K=NonnegOrthant(), g=lambda u: 2.0 * u,
                      g_inverse=lambda y: 0.5 * y)
    hp = HigherOrderProblem(base=base, p=2.0, mu=0.0)
    with pytest.raises(CapabilityError):
        solve_higher_order(hp, SolveConfig(rho=0.5))


def test_higher_order_mode_validation(example4_5):
    hp = HigherOrderProblem(base=example4_5, p=2.0, mu=0.0)
    with pytest.raises(ValueError):
        solve_higher_order(hp, SolveConfig(rho=0.5), mode="bogus")


def test_higher_order_implicit_descent_diagnostic(example3_10):
    hp = HigherOrderProblem(base=example3_10, p=2.0, mu=0.0)
    report = solve_higher_order(hp, SolveConfig(rho=0.1), mode="implicit")
    assert report.converged
    prev = report.trace[0]
    for rec in report.trace[1:]:
        slack = rec.lyapunov - (prev.lyapunov - rec.info["step_sq"])
        assert slack <= 1e-8
        prev = rec


def test_higher_order_parameter_validation(example4_5):
    with pytest.raises(ValueError):
        HigherOrderProblem(base=example4_5, p=1.0, mu=0.0)
    with pytest.raises(ValueError):
        HigherOrderProblem(base=example4_5, p=2.0, mu=-0.1)
    with pytest.raises(ValueError):
        HigherOrderProblem(base=example4_5, p=2.0, mu=0.1, nu=-0.5)
    assert HigherOrderProblem(base=example4_5, p=2.0, mu=0.25).nu == 0.25
