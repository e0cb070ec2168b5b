"""Projection fixed-point family and dynamical-system discretizations."""

import dataclasses

import numpy as np
import pytest

from oracles import grid_search_box2

from gvikit import (
    GviProblem,
    SolveConfig,
    is_solution,
    solve_dynamical,
    solve_extragradient,
    solve_projection,
    solve_two_step,
)
from gvikit.errors import CapabilityError, DivergenceError, InnerLoopError
from gvikit.registry import ProblemSpec, build_problem
from gvikit.sets import Box, NonnegOrthant


def test_projection_converges_to_known_solution(example4_10):
    report = solve_projection(example4_10, SolveConfig(rho=0.5))
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_projection_one_step_on_zero_operator(zero_operator_problem):
    u0 = np.full(3, 0.25)
    report = solve_projection(zero_operator_problem, u0=u0)
    assert report.converged
    assert report.iterations <= 1
    np.testing.assert_allclose(report.solution, u0)


def test_projection_matches_grid_oracle(example3_2):
    report = solve_projection(example3_2, SolveConfig(rho=0.2, tol=1e-9))
    oracle = grid_search_box2(example3_2.T)
    assert report.converged
    assert np.max(np.abs(report.solution - oracle)) <= 1e-3


def test_projection_trace_shapes(example4_10):
    report = solve_projection(example4_10, SolveConfig(rho=0.5))
    assert len(report.trace) == report.iterations + 1
    assert report.residual_norm <= 1e-7
    assert is_solution(example4_10, report.solution, report.details["rho"], 1e-6)


def test_extragradient_converges(example3_10):
    # The predictor-corrector pair is stable only for rho below the
    # operator's inverse Lipschitz constant (about 0.169 here); 0.2
    # cycles, so the reference run uses 0.15.
    report = solve_extragradient(example3_10, SolveConfig(rho=0.15))
    assert report.converged
    assert report.residual_norm <= 1e-7


def test_extragradient_cycles_above_step_bound(example3_10):
    report = solve_extragradient(example3_10, SolveConfig(rho=0.2))
    assert not report.converged


def test_extragradient_one_step_on_zero_operator(zero_operator_problem):
    report = solve_extragradient(zero_operator_problem, u0=np.full(3, 0.5))
    assert report.converged
    assert report.iterations <= 1


def test_extragradient_handles_rotation_where_projection_diverges(rotation_problem):
    cfg = SolveConfig(rho=0.5, tol=1e-6, max_iters=2000)
    report = solve_extragradient(rotation_problem, cfg, u0=np.array([1.0, 0.0]))
    assert report.converged
    assert np.linalg.norm(report.solution) <= 1e-5
    with pytest.raises(DivergenceError):
        solve_projection(rotation_problem, cfg, u0=np.array([1.0, 0.0]))


def test_extragradient_requires_inverse_for_nonidentity_g():
    prob = GviProblem(dim=2, T=lambda u: u, K=NonnegOrthant(), g=lambda u: 2.0 * u)
    with pytest.raises(CapabilityError):
        solve_extragradient(prob, SolveConfig(rho=0.1))


def test_two_step_degenerates_to_projection(example4_5):
    cfg = SolveConfig(rho=0.5, max_iters=10, tol=1e-16)
    plain = solve_projection(example4_5, cfg)
    degen = solve_two_step(example4_5, SolveConfig(rho=0.5, max_iters=10, tol=1e-16, lam=0.0, xi=0.0))
    np.testing.assert_array_equal(plain.solution, degen.solution)


def _counted(problem, name):
    # The problem with its T or g (the identity when None) counting its calls.
    calls, fn = [], getattr(problem, name) or (lambda x: x)
    return dataclasses.replace(problem, **{name: lambda x: calls.append(None) or fn(x)}), calls


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_two_step_at_xi_zero_takes_t_from_the_stage(lam):
    # At xi = 0 the corrector evaluates T at u, which the stage holds, so a
    # step costs one T evaluation.  At lam = xi = 0 the corrector is the
    # stage's projection: the run is projection's, and g(y) is never formed.
    problem = build_problem(ProblemSpec("example4", n=100))
    counted, calls = _counted(problem, "T")
    report = solve_two_step(counted, SolveConfig(rho=0.5, lam=lam, xi=0.0))
    assert report.converged and len(calls) == report.iterations + 1
    if lam == 0.0:
        plain = solve_projection(problem, SolveConfig(rho=0.5))
        assert report.iterations == plain.iterations
        assert report.solution.tobytes() == plain.solution.tobytes()
        with_g, calls = _counted(problem, "g")
        report = solve_two_step(with_g, SolveConfig(rho=0.5, lam=lam, xi=0.0))
        assert len(calls) == report.iterations + 1
    midpoint, calls = _counted(problem, "T")
    report = solve_two_step(midpoint, SolveConfig(rho=0.5, lam=lam, xi=0.5))
    assert len(calls) == 2 * report.iterations + 1


def test_two_step_midpoint_converges(example4_10):
    report = solve_two_step(example4_10, SolveConfig(rho=0.5, lam=0.5, xi=0.5))
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_two_step_schemes_are_distinct(example3_10):
    a = solve_two_step(example3_10, SolveConfig(rho=0.2, max_iters=3, tol=1e-16, lam=0.5, xi=1.0))
    b = solve_two_step(example3_10, SolveConfig(rho=0.2, max_iters=3, tol=1e-16, lam=0.0, xi=0.0))
    assert np.linalg.norm(a.solution - b.solution) > 1e-6
    full = solve_two_step(example3_10, SolveConfig(rho=0.2, lam=0.5, xi=1.0))
    assert full.converged


def test_scheme_weight_validation():
    with pytest.raises(ValueError):
        SolveConfig(lam=-0.1)


def test_dynamical_stationary_on_zero_operator(zero_operator_problem):
    report = solve_dynamical(zero_operator_problem, u0=np.full(3, 0.7))
    assert report.converged
    assert report.iterations <= 1


def test_dynamical_forward_converges(example4_10):
    report = solve_dynamical(example4_10, SolveConfig(rho=0.5, h=1.0), variant="ForwardT")
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_dynamical_full_implicit_descends(example3_10):
    report = solve_dynamical(example3_10, SolveConfig(rho=0.2, h=1.0), variant="FullImplicit")
    assert report.converged
    lyap = [rec.lyapunov for rec in report.trace]
    assert all(b < a for a, b in zip(lyap, lyap[1:]))


def test_dynamical_explicit_converges(example4_10):
    report = solve_dynamical(example4_10, SolveConfig(rho=0.5, h=1.0), variant="ExplicitT")
    assert report.converged
    assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_dynamical_inner_cap_raises(example3_10):
    cfg = SolveConfig(rho=0.2, inner_max_iters=1, inner_tol=1e-16)
    with pytest.raises(InnerLoopError, match="ForwardT"):
        solve_dynamical(example3_10, cfg, variant="ForwardT")


def test_forward_variant_monotone_descent(example3_10):
    # Along a run on a monotone instance with known solution, each step
    # shrinks the squared distance by at least the squared step length.
    report = solve_dynamical(example3_10, SolveConfig(rho=0.2, h=1.0), variant="ForwardT")
    assert report.converged
    for prev, rec in zip(report.trace, report.trace[1:]):
        slack = rec.lyapunov - (prev.lyapunov - rec.info["step_gsq"])
        assert slack <= 1e-8


def test_solver_consistency_on_shared_instance(example3_10):
    cfg = SolveConfig(rho=0.15)
    reports = [
        solve_projection(example3_10, cfg),
        solve_extragradient(example3_10, cfg),
        solve_two_step(example3_10, cfg),
        solve_dynamical(example3_10, cfg),
    ]
    assert all(r.converged for r in reports)
    base = reports[0].solution
    for r in reports[1:]:
        assert np.max(np.abs(r.solution - base)) <= 1e-5
