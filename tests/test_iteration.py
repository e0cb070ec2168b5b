"""The shared outer loop: evaluation counts, the carried stage, fail-fast checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import box_projection_residual

import gvikit.auxiliary
import gvikit.core
import gvikit.equilibrium
import gvikit.sets
import gvikit.wiener_hopf
from gvikit import (
    ALGORITHMS,
    Box,
    EquilibriumProblem,
    GviProblem,
    HigherOrderProblem,
    IntersectionWithHyperplane,
    ProblemSpec,
    SolveConfig,
    WholeSpace,
    Simplex,
    build_problem,
    project_intersection,
    projection_aux_oracle,
    residual,
    solve_double_projection_optimal,
    solve_dynamical,
    solve_eq_inertial,
    solve_gap_descent,
    solve_higher_order,
)
from gvikit.core import first_difference_rho
from gvikit.errors import UnsupportedSetError

# T evaluations per iteration at a fixed rho: the stage at each new
# iterate serves both the stop test and the next step.
T_PER_ITERATION = {
    "projection": 1,
    "dynamical-explicit": 1,
    "extragradient": 2,
    "two-step": 2,
    "whe": 2,
    "three-step": 3,
}


def _counted(problem):
    calls = [0]
    T = problem.T

    def counted_T(x):
        calls[0] += 1
        return T(x)

    return dataclasses.replace(problem, T=counted_T), calls


@pytest.mark.parametrize("alg", [*T_PER_ITERATION, "dp-basic", "dp-optimal"])
def test_exact_operator_evaluations(alg):
    problem, calls = _counted(build_problem(ProblemSpec("example4", n=50)))
    report = ALGORITHMS[alg](problem, SolveConfig(rho=0.1))
    assert report.iterations > 0
    if alg in T_PER_ITERATION:
        # The + 1 is the stage at the start point.
        expected = T_PER_ITERATION[alg] * report.iterations + 1
    else:
        # Search k starts at max(0, m_{k-1} - 1) and evaluates m_k - start + 1
        # trial points, the last of which is reused as T(y); one more
        # evaluation gives the stage at the new iterate.
        ms = [rec.info["m"] for rec in report.trace[1:]]
        starts = [0] + [max(0, m - 1) for m in ms[:-1]]
        expected = sum(m - start + 2 for m, start in zip(ms, starts)) + 1
    assert calls[0] == expected


@pytest.mark.parametrize("max_iters", [5, 1000])
@pytest.mark.parametrize("alg", list(ALGORITHMS))
def test_reported_residual_is_the_residual_at_the_solution(alg, max_iters, example4_10):
    config = SolveConfig(rho=0.5, alpha=0.1, max_iters=max_iters)
    report = ALGORITHMS[alg](example4_10, config)
    rho = report.details["rho"]
    if alg.startswith("dp-"):
        assert rho == 1.0
    assert report.residual_norm == float(np.linalg.norm(residual(example4_10, report.solution, rho)))


@pytest.mark.parametrize(
    "K",
    [
        IntersectionWithHyperplane(Box(np.zeros(4), np.ones(4)), np.ones(4), 2.0),
        WholeSpace(),
    ],
    ids=["box-cut", "whole-space"],
)
def test_dp_optimal_rejects_unsupported_set_before_any_evaluation(K):
    problem, calls = _counted(GviProblem(dim=4, T=lambda x: x - 0.3, K=K))
    with pytest.raises(UnsupportedSetError, match=type(K).__name__):
        solve_double_projection_optimal(problem)
    assert calls[0] == 0


def test_project_intersection_names_the_unsupported_base():
    with pytest.raises(UnsupportedSetError, match="WholeSpace"):
        project_intersection(WholeSpace(), np.ones(2), 1.0, np.zeros(2))


@pytest.mark.parametrize("alg", ["dynamical-forward", "dynamical-implicit"])
def test_dynamical_inner_loop_does_not_repeat_the_stage_evaluation(alg):
    # The inner fixed point starts from the carried stage's projection,
    # so T is never called twice in a row at the same point.
    base = build_problem(ProblemSpec("example4", n=50))
    points = []

    def recording_T(x):
        points.append(np.array(x, dtype=float))
        return base.T(x)

    report = ALGORITHMS[alg](dataclasses.replace(base, T=recording_T), SolveConfig(rho=0.1))
    assert report.iterations > 0
    repeats = [k for k in range(1, len(points)) if np.array_equal(points[k], points[k - 1])]
    assert repeats == []


@pytest.mark.parametrize(
    ("pid", "n", "iterations"),
    [("example2", None, 78), ("example3", 10, 46), ("example3", 100, 52),
     ("example4", 10, 35), ("example4", 100, 42), ("example4", 1000, 52)],
)
def test_dp_optimal_iterations_and_base_projections_per_cut(pid, n, iterations, monkeypatch):
    # The cut over a Box is solved on its kinks without calling project().
    # Over a Simplex only a trial that leaves the last support sorts; on
    # example2, where each Newton search starts at the root on the simplex's
    # affine hull and first tries every coordinate, 20 of the 78 cuts never
    # sort and the others sort once.  example2's T is not monotone, and there
    # a warm-started Armijo search can accept a power two or three below the
    # one a search from 0 accepts: 78 iterations, where Armijo searches from
    # 0 take 97.
    cuts, base_projections, inside = [0], [0], [False]
    project, cut = gvikit.sets.project, gvikit.wiener_hopf.project_intersection

    def counted_project(cset, z):
        base_projections[0] += inside[0]
        return project(cset, z)

    def counted_cut(*args, **kwargs):
        cuts[0] += 1
        inside[0] = True
        try:
            return cut(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(gvikit.sets, "project", counted_project)
    monkeypatch.setattr(gvikit.wiener_hopf, "project_intersection", counted_cut)
    problem = build_problem(ProblemSpec(pid) if n is None else ProblemSpec(pid, n=n))
    report = solve_double_projection_optimal(problem, SolveConfig())
    assert report.converged
    assert report.iterations == iterations
    assert cuts[0] > 0
    if isinstance(problem.K, Simplex):
        assert (cuts[0], base_projections[0]) == (78, 58)
    else:
        assert base_projections[0] == 0


@pytest.mark.parametrize(
    ("alg", "iterations", "T_evals"),
    [("projection", 51, 52), ("extragradient", 107, 215), ("two-step", 35, 71), ("whe", 26, 53),
     ("dp-basic", 56, 177), ("three-step", 17, 52), ("dynamical-explicit", 107, 108)],
)
def test_large_example3_iterations_and_operator_evaluations(alg, iterations, T_evals):
    # The large-box benchmark runs: example3 at n = 2000 with rho = 0.15.
    # dp-basic starts each Armijo search one power above the last accepted
    # one, with the iterates of searches from 0 (which make 618 T calls).
    problem, calls = _counted(build_problem(ProblemSpec("example3", n=2000)))
    report = ALGORITHMS[alg](problem, SolveConfig(rho=0.15))
    assert report.converged
    assert (report.iterations, calls[0]) == (iterations, T_evals)


def test_example2_dynamical_implicit_operator_evaluations():
    # Each inner loop stops relative to its first step, not at inner_tol,
    # and reaches that test by Anderson trials; rho is learned from rho_ref.
    problem, calls = _counted(build_problem(ProblemSpec("example2")))
    report = ALGORITHMS["dynamical-implicit"](problem, SolveConfig())
    assert report.converged
    assert (report.iterations, calls[0]) == (71, 703)
    # The exact solution of example2 (its residual is 0.0 in floating point).
    star = np.array([93.0 / 38.0, 0.5, 0.0, 20.0 / 19.0])
    assert np.max(np.abs(report.solution - star)) <= 1e-5


def test_example3_higher_order_implicit_operator_evaluations():
    # The small-mix run of the implicit higher-order mode.
    base = build_problem(ProblemSpec("example3", n=100))
    problem, calls = _counted(base)
    report = solve_higher_order(HigherOrderProblem(base=problem, p=3.0, mu=0.5), SolveConfig(rho=0.1),
                                mode="implicit")
    assert report.converged
    assert (report.iterations, calls[0]) == (89, 381)
    assert np.max(np.abs(report.solution - base.known_solution)) <= 1e-6


def test_example4_higher_order_implicit_evaluates_T_once_per_point():
    # The small-mix run at p = 2: when an inner trial lands on its fixed
    # point, the next step's first evaluation reuses T at the point returned.
    base = build_problem(ProblemSpec("example4", n=100))
    points = []

    def recording_T(x):
        points.append(np.array(x, dtype=float))
        return base.T(x)

    problem = HigherOrderProblem(base=dataclasses.replace(base, T=recording_T), p=2.0, mu=0.5)
    report = solve_higher_order(problem, SolveConfig(rho=0.1), mode="implicit")
    assert report.converged
    assert (report.iterations, len(points)) == (145, 401)
    assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))


@pytest.mark.parametrize("pid, mode, counts", [("example3", "two_step", (38, 77, 351)),
                                               ("example3", "implicit", (89, 381, 673)),
                                               ("example4", "two_step", (68, 137, 669)),
                                               ("example4", "implicit", (145, 401, 799))])
def test_higher_order_p3_iterations_operator_evaluations_and_projections(pid, mode, counts, monkeypatch):
    # The small-mix runs at p = 3: (iterations, T calls, projections).  Each
    # two_step half-step is one bracketed scalar search, a projection per
    # trial; each implicit inner evaluation is two projections, except the
    # first, which is the stage's.  The start point and the stage at every
    # point add one each.
    projections = [0]
    project = gvikit.equilibrium.project

    def counted_project(K, x):
        projections[0] += 1
        return project(K, x)

    monkeypatch.setattr(gvikit.equilibrium, "project", counted_project)
    monkeypatch.setattr(gvikit.core, "project", counted_project)
    problem, calls = _counted(build_problem(ProblemSpec(pid, n=100)))
    report = solve_higher_order(HigherOrderProblem(base=problem, p=3.0, mu=0.5), SolveConfig(rho=0.1), mode=mode)
    assert report.converged
    assert (report.iterations, calls[0], projections[0]) == counts


def test_gap_descent_projects_each_accepted_point_once(monkeypatch):
    # The small-mix run: (iterations, T calls, projections).  The start
    # point, the first difference and the start stage make one projection
    # each, and every Armijo trial one, the accepted trial's stage serving
    # as the next stage; this run accepts its first trial at every step.
    projections = [0]
    project = gvikit.core.project

    def counted_project(K, x):
        projections[0] += 1
        return project(K, x)

    monkeypatch.setattr(gvikit.core, "project", counted_project)
    monkeypatch.setattr(gvikit.auxiliary, "project", counted_project)
    problem, calls = _counted(build_problem(ProblemSpec("example4", n=100)))
    report = solve_gap_descent(problem, SolveConfig())
    assert report.converged
    assert (report.iterations, calls[0], projections[0]) == (9, 11, 12)


# The residual solvers that learn rho when config.rho is None.
LEARNED_STEP = ["projection", "extragradient", "two-step", "whe", "three-step", "dynamical-forward",
                "dynamical-implicit", "dynamical-explicit"]


@pytest.fixture(scope="module", params=[("example2", None), ("example3", 10), ("example3", 100),
                                        ("example3", 1000), ("example4", 10), ("example4", 100),
                                        ("example4", 1000), ("example4", 10000)],
                ids=lambda spec: f"{spec[0]}-{spec[1]}")
def probed_problem(request):
    return build_problem(ProblemSpec(*request.param))


@pytest.mark.parametrize("alg", LEARNED_STEP)
def test_learned_step_stops_where_the_probe_rho_stops(alg, probed_problem):
    # rho_ref, from the first difference, takes the place of the probe's
    # rho_0: the stop bounds the residual at rho_ref, whatever rho was learned.
    config = SolveConfig()
    report = ALGORITHMS[alg](probed_problem, config)
    assert report.converged
    rho_ref = report.details["rho_ref"]
    assert np.linalg.norm(residual(probed_problem, report.solution, rho_ref)) <= config.tol


def _monotone_box_instance(n, seed, skew):
    # T(u) = (D + S) u + q over a box: D diagonal in [1, 2], S skew with ||S|| = skew <= 0.5.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    S = A - A.T
    size = np.linalg.norm(S, 2)
    M = np.diag(rng.uniform(1.0, 2.0, n)) + (skew / size * S if size > 0.0 else S)
    q = rng.uniform(0.1, 3.0) * rng.standard_normal(n)
    lo = -rng.uniform(0.0, 1.0, n)
    return M, q, lo, lo + rng.uniform(0.1, 2.0, n)


@pytest.mark.parametrize("alg", LEARNED_STEP)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
def test_learned_step_certifies_tol_at_rho_ref_on_random_boxes(alg, n, seed, skew):
    M, q, lo, hi = _monotone_box_instance(n, seed, skew)
    points = []

    def recording_T(x):
        points.append(np.array(x, dtype=float))
        return M @ x + q

    config = SolveConfig()
    report = ALGORITHMS[alg](GviProblem(dim=n, T=recording_T, K=Box(lo, hi)), config)
    assert all(np.all((lo <= x) & (x <= hi)) for x in points)
    if report.converged:
        assert box_projection_residual(lambda x: M @ x + q, lo, hi, report.solution,
                                       report.details["rho_ref"]) <= config.tol


def test_learned_step_costs_no_operator_evaluation():
    # The stage at the start, the first difference, and one stage per step.
    problem, calls = _counted(build_problem(ProblemSpec("example2")))
    report = ALGORITHMS["projection"](problem, SolveConfig())
    assert report.converged
    assert calls[0] == 1 + report.iterations + 1
    assert report.details["rho"] > report.details["rho_ref"]


# Fixed-rho solvers that take rho_ref when config.rho is None.
FIXED_RHO = ["gap-descent", "two_step-p2", "two_step-p3", "implicit-p2", "implicit-p3"]


def _fixed_rho_run(case, problem, config):
    if case == "gap-descent":
        return solve_gap_descent(problem, config)
    mode, p = case.split("-p")
    return solve_higher_order(HigherOrderProblem(base=problem, p=float(p), mu=0.5), config, mode=mode)


@pytest.mark.parametrize("spec", [("example3", 100), ("example4", 10)], ids=lambda spec: f"{spec[0]}-{spec[1]}")
@pytest.mark.parametrize("case", FIXED_RHO)
def test_fixed_rho_solvers_take_rho_ref_from_two_T_evaluations(case, spec, monkeypatch):
    # T(u_0) and T at the first difference's point, then the loop, whose first
    # step reuses T(u_0): the default run costs one T more than a run at rho_ref,
    # and its stop certifies tol at that rho.
    base = build_problem(ProblemSpec(*spec))
    problem, calls = _counted(base)
    before_loop = []
    loop = gvikit.core.iterate

    def counted_loop(*args, **kwargs):
        before_loop.append(calls[0])
        return loop(*args, **kwargs)

    monkeypatch.setattr(gvikit.core, "iterate", counted_loop)
    config = SolveConfig()
    report = _fixed_rho_run(case, problem, config)
    assert report.converged
    assert before_loop == [2]
    u0 = np.zeros(base.dim)
    assert report.details["rho"] == first_difference_rho(base, u0, u0, base.T(u0))
    assert box_projection_residual(base.T, base.K.lo, base.K.hi, report.solution,
                                   report.details["rho"]) <= config.tol

    fixed, fixed_calls = _counted(base)
    at_rho = _fixed_rho_run(case, fixed, SolveConfig(rho=report.details["rho"]))
    assert at_rho.solution.tobytes() == report.solution.tobytes()
    assert at_rho.iterations == report.iterations
    assert calls[0] == fixed_calls[0] + 1


@pytest.mark.parametrize("case", ["higher-order-implicit-p2", "higher-order-implicit-p3", "eq-inertial",
                                  "eq-inertial-skew"])
def test_implicit_inner_loops_evaluate_T_only_in_K(case):
    # The inner maps are composed with P_K, so an accelerated trial outside
    # K never reaches T.  On example4 the eq-inertial trials stay in K on
    # their own; the monotone skew instance, at alpha_n = 0.6, has a trial
    # 4.4e-4 outside the unit square.
    if case == "eq-inertial-skew":
        M, q = np.array([[0.3, -0.6], [1.2, 0.5]]), np.array([-0.1, -1.2])
        base = GviProblem(dim=2, T=lambda x: M @ x + q, K=Box(np.zeros(2), np.ones(2)))
        config = SolveConfig(rho=0.5, alpha_schedule=0.6)
    else:
        base = build_problem(ProblemSpec("example4", n=100))
        config = SolveConfig(rho=0.1)
    points = []

    def recording_T(x):
        points.append(np.array(x, dtype=float))
        return base.T(x)

    if case.startswith("eq-inertial"):
        ep = EquilibriumProblem(dim=base.dim, F=lambda u, y: float(recording_T(u) @ (y - u)), K=base.K,
                                aux_oracle=projection_aux_oracle(recording_T, base.K))
        report = solve_eq_inertial(ep, config)
    else:
        problem = HigherOrderProblem(base=dataclasses.replace(base, T=recording_T), p=float(case[-1]), mu=0.5)
        report = solve_higher_order(problem, config, mode="implicit")
    assert report.converged
    assert points
    assert all(np.all((0.0 <= x) & (x <= 1.0)) for x in points)


def _counted_affine_g():
    # g(u) = 2u + 0.1 maps [0, 1]^n onto [0.1, 2.1]^n.
    calls = [0]

    def g(u):
        calls[0] += 1
        return 2.0 * np.asarray(u) + 0.1

    return g, lambda y: (np.asarray(y) - 0.1) / 2.0, calls


def test_eq_inertial_evaluates_g_once_per_step():
    # g(u_{n-1}) is carried from the step before, not evaluated again.
    n = 10
    T = build_problem(ProblemSpec("example4", n=n)).T
    K = Box(np.full(n, 0.1), np.full(n, 2.1))
    g, g_inverse, calls = _counted_affine_g()
    problem = EquilibriumProblem(dim=n, F=lambda u, y: float(T(u) @ (y - u)), K=K,
                                 aux_oracle=projection_aux_oracle(T, K), g=g, g_inverse=g_inverse)
    report = solve_eq_inertial(problem, SolveConfig(rho=0.5, alpha_schedule=0.3))
    assert report.converged
    assert (report.iterations, calls[0]) == (45, 45)


def test_dynamical_lyapunov_evaluates_g_at_the_solution_once():
    # One g per iterate for the stage, one for the Lyapunov energy, and
    # one g(u*) for the whole solve.
    n = 10
    example3 = build_problem(ProblemSpec("example3", n=n))
    g, g_inverse, calls = _counted_affine_g()
    problem = GviProblem(dim=n, T=example3.T, K=Box(np.full(n, 0.1), np.full(n, 2.1)), g=g,
                         g_inverse=g_inverse, known_solution=example3.known_solution)
    calls[0] = 0  # construction checks g_inverse against g
    report = solve_dynamical(problem, SolveConfig(rho=0.3), variant="ExplicitT")
    assert report.converged
    assert (report.iterations, calls[0]) == (89, 2 * (89 + 1) + 1)
    gap = g(example3.known_solution) - g(report.solution)
    assert report.trace[-1].lyapunov == float(gap @ gap)
