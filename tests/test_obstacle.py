"""Spline discretization of the third-order obstacle benchmark."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    fd_third_derivative,
    loop_complementarity,
    loop_knot_slopes,
    loop_spline_system,
    quadratic_energy_value,
)

from gvikit.obstacle_spline import (
    ObstacleProblem,
    _solve_band,
    analytic_solution,
    assemble,
    benchmark_problem,
    complementarity_check,
    discrete_energy,
    max_error,
    solve_grid,
    spline_fit,
)
from gvikit.errors import AssemblyError, GridError

REFERENCE_ERRORS = {15: 1.23e-3, 31: 5.53e-4, 63: 2.61e-4, 127: 1.27e-4}
BAND_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


def homogeneous_problem():
    return ObstacleProblem(
        a=0.0, b=1.0, f=lambda x: 0.0, p=lambda x: 0.0, r=0.0,
        alpha=0.0, beta1=0.0, beta2=0.0, psi=lambda x: -1.0,
    )


def general_problem():
    return ObstacleProblem(
        a=0.0, b=2.0, f=math.sin, p=lambda x: 1.0 + x, r=0.3,
        alpha=0.7, beta1=-0.2, beta2=0.4, psi=lambda x: 0.5 * x,
    )


def densify(system):
    dense = np.zeros((system.n, system.n))
    for col in range(system.n):
        for band_row in range(4):
            row = band_row - 1 + col
            if 0 <= row < system.n:
                dense[row, col] = system.matrix[band_row, col]
    return dense


def test_benchmark_errors_match_reference_table():
    prob = benchmark_problem()
    for n, target in REFERENCE_ERRORS.items():
        err = max_error(prob, n)
        assert 0.5 * target <= err <= 2.0 * target


def test_error_ratios_show_second_order_convergence():
    prob = benchmark_problem()
    errs = [max_error(prob, n) for n in (15, 31, 63, 127)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert 1.8 <= a / b <= 4.5


def test_homogeneous_instance_solves_to_zero():
    prob = homogeneous_problem()
    s = solve_grid(prob, 15)
    assert np.max(np.abs(s)) <= 1e-12
    assert max_error(prob, 15, exact=lambda x: 0.0) <= 1e-12


def test_grid_validation():
    prob = benchmark_problem()
    with pytest.raises(GridError):
        assemble(prob, 10)
    with pytest.raises(GridError):
        assemble(prob, 3)


def test_interior_rows_carry_printed_stencils():
    system = assemble(homogeneous_problem(), 15)
    dense = densify(system)
    # Row 7 couples s_6 .. s_9 (i = 8); with p = 0 nothing is folded.
    np.testing.assert_allclose(dense[7, 5:9], [-1.0, 3.0, -3.0, 1.0], atol=1e-15)
    assert np.all(dense[7, :5] == 0.0) and np.all(dense[7, 9:] == 0.0)


def test_contact_rows_fold_coefficient_into_matrix():
    bench = densify(assemble(benchmark_problem(), 15))
    hom = densify(assemble(homogeneous_problem(), 15))
    w0 = (1.0 / 16.0) ** 3 / 12.0
    # Row 7's operator nodes all lie in the contact region, so the
    # p = 1 terms appear as -(h^3/12)(1, 5, 5, 1) on the matrix side.
    np.testing.assert_allclose(bench[7, 5:9] - hom[7, 5:9],
                               -w0 * np.array([1.0, 5.0, 5.0, 1.0]), atol=1e-18)


@pytest.mark.parametrize("make_problem", [benchmark_problem, general_problem])
def test_array_code_matches_per_entry_loops(make_problem):
    prob = make_problem()
    for n in (7, 31):
        system = assemble(prob, n)
        matrix, rhs = loop_spline_system(prob, n)
        assert system.matrix.tobytes() == matrix.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()
        s = solve_grid(prob, n)
        assert spline_fit(prob, s).c[2].tobytes() == loop_knot_slopes(prob, s)[:-1].tobytes()
        assert complementarity_check(s, prob) == loop_complementarity(s, prob)


def test_solution_grid_shape_and_boundary_value():
    prob = benchmark_problem()
    s = solve_grid(prob, 15)
    assert s.size == 17
    assert s[0] == prob.alpha


def test_spline_knot_continuity():
    prob = benchmark_problem()
    s = solve_grid(prob, 31)
    pp = spline_fit(prob, s)
    coeffs, breaks = pp.c, pp.x
    h = breaks[1] - breaks[0]
    worst = np.zeros(3)
    for i in range(1, breaks.size - 1):
        left = coeffs[:, i - 1]
        right = coeffs[:, i]
        c0_left = ((left[0] * h + left[1]) * h + left[2]) * h + left[3]
        c1_left = (3.0 * left[0] * h + 2.0 * left[1]) * h + left[2]
        c2_left = 6.0 * left[0] * h + 2.0 * left[1]
        worst[0] = max(worst[0], abs(c0_left - right[3]))
        worst[1] = max(worst[1], abs(c1_left - right[2]))
        worst[2] = max(worst[2], abs(c2_left - 2.0 * right[1]))
    assert np.all(worst <= 2e-13)


def test_spline_interpolates_grid_values():
    prob = benchmark_problem()
    s = solve_grid(prob, 15)
    pp = spline_fit(prob, s)
    x = np.arange(17) / 16.0
    np.testing.assert_allclose(pp(x[:-1]), s[:-1], atol=1e-12)


def test_analytic_boundary_conditions():
    assert analytic_solution(0.0) == 0.0
    step = 1e-6
    d_left = (analytic_solution(step) - analytic_solution(-step)) / (2.0 * step)
    d_right = (analytic_solution(1.0 + step) - analytic_solution(1.0 - step)) / (2.0 * step)
    assert abs(d_left) <= 1e-8
    assert abs(d_right) <= 1e-8


def test_analytic_interface_continuity():
    for point in (0.25, 0.75):
        left = analytic_solution(point - 1e-13)
        right = analytic_solution(point + 1e-13)
        assert abs(left - right) <= 1e-10


def test_analytic_satisfies_piecewise_ode():
    # u''' = u - 1 on the contact interval, u''' = 0 elsewhere.
    for x in (0.30, 0.50, 0.70):
        d3 = fd_third_derivative(analytic_solution, x)
        assert abs(d3 - (analytic_solution(x) - 1.0)) <= 1e-4
    for x in (0.05, 0.15, 0.85, 0.95):
        assert abs(fd_third_derivative(analytic_solution, x)) <= 1e-4


def test_energy_of_quadratic_grid():
    prob = benchmark_problem()
    x = np.linspace(0.0, 1.0, 65)
    exact = quadratic_energy_value()
    assert exact == 4
    assert abs(discrete_energy(prob, x**2) - float(exact)) <= 1e-2


def test_energy_zero_grid_and_validation():
    prob = benchmark_problem()
    assert discrete_energy(prob, np.zeros(65)) == 0.0
    with pytest.raises(ValueError):
        discrete_energy(prob, np.array([0.0, 1.0]))


def test_energy_minimal_among_obstacle_respecting_perturbations():
    # Points above the obstacle carry far more curvature than the
    # benchmark solution, so its energy lower-bounds the sample.
    prob = benchmark_problem()
    n = 63
    x = np.arange(n + 2) / (n + 1)
    u = np.array([analytic_solution(xi) for xi in x])
    psi = np.array([prob.psi(xi) for xi in x])
    base_energy = discrete_energy(prob, u)
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = rng.uniform(0.0, 1.0, 3)
        bump = 0.05 * (c[0] * np.sin(np.pi * x) ** 2
                       + c[1] * np.sin(2.0 * np.pi * x) ** 2
                       + c[2] * x**2 * (1.0 - x) ** 2)
        v = np.maximum(u + bump, psi)
        v[0], v[1], v[-2], v[-1] = u[0], u[1], u[-2], u[-1]
        assert np.all(v >= psi)
        assert discrete_energy(prob, v) >= base_energy


def test_complementarity_violation_scales_with_grid():
    prob = benchmark_problem()
    n = 63
    s = solve_grid(prob, n)
    h = 1.0 / (n + 1)
    assert complementarity_check(s, prob) <= 10.0 * h**2


def test_interface_point_validation():
    with pytest.raises(ValueError):
        ObstacleProblem(a=0.0, b=1.0, f=lambda x: 0.0, p=lambda x: 0.0, r=0.0,
                        alpha=0.0, beta1=0.0, beta2=0.0, psi=lambda x: 0.0,
                        c=0.8, d=0.2)


@pytest.mark.parametrize("make_problem", [benchmark_problem, general_problem])
def test_solve_grid_scaled_residual_is_at_rounding_level(make_problem):
    prob = make_problem()
    for n in (7, 15, 31, 63, 127, 255, 511, 1023):
        system = assemble(prob, n)
        dense = densify(system)
        s = solve_grid(prob, n)[1:-1]
        residual = np.max(np.abs(dense @ s - system.rhs))
        scale = np.linalg.norm(dense, np.inf) * np.max(np.abs(s)) + np.max(np.abs(system.rhs))
        assert residual <= 1e-15 * scale, n


@pytest.mark.parametrize("datum, value", [("p", lambda x: math.nan), ("f", lambda x: math.inf), ("r", math.nan)])
def test_non_finite_datum_raises_assembly_error_naming_it(datum, value):
    prob = dataclasses.replace(benchmark_problem(), **{datum: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssemblyError, match=rf"^{datum}\b.* is not finite"):
            solve_grid(prob, 15)


@pytest.mark.parametrize("datum", ["f", "p"])
def test_spline_fit_raises_assembly_error_naming_a_non_finite_datum(datum):
    prob = benchmark_problem()
    s = solve_grid(prob, 15)
    prob = dataclasses.replace(prob, **{datum: lambda x: math.inf})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssemblyError, match=rf"^{datum}\(.* is not finite"):
            spline_fit(prob, s)


def test_discrete_energy_raises_assembly_error_naming_a_non_finite_f():
    prob = benchmark_problem()
    s = solve_grid(prob, 15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssemblyError, match=r"^f\(.* is not finite"):
            discrete_energy(dataclasses.replace(prob, f=lambda x: math.inf), s)


def band_storage(dense):
    """The (2, 1) band of a dense matrix in SplineSystem.matrix's layout, entry by entry."""
    n = dense.shape[0]
    band = np.zeros((4, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 2)):
            band[1 + i - j, j] = dense[i, j]
    return band


@st.composite
def band_systems(draw):
    """A dense (2, 1)-band matrix, its diagonal often tiny or zero so that rows must swap, and a rhs."""
    n = draw(st.integers(1, 12))
    entry = st.floats(-10.0, 10.0)
    diagonal = st.one_of(st.sampled_from([0.0, 1e-12, -1e-9]), entry)
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 2)):
            dense[i, j] = draw(diagonal if i == j else entry)
    return dense, np.array(draw(st.lists(entry, min_size=n, max_size=n)))


@BAND_SETTINGS
@given(band_systems())
@example((np.array([[4.0]]), np.array([np.finfo(float).tiny / 1000])))  # a subnormal rhs
@example((np.array([[np.finfo(float).tiny]]), np.array([4.0])))  # a solution beyond the float range
def test_band_solve_matches_dense_solve(system):
    dense, rhs = system
    cond = np.linalg.cond(dense, np.inf)
    assume(cond <= 1e12)
    s = _solve_band(band_storage(dense), rhs)
    reference = np.linalg.solve(dense, rhs)
    if not np.isfinite(reference).all():
        # The solution lies beyond the float range: both solves must overflow alike.
        np.testing.assert_array_equal(s, reference)
        return
    size = np.max(np.abs(reference), initial=0.0)
    assert np.max(np.abs(s - reference)) <= 1e-13 * cond * size
    residual = np.max(np.abs(dense @ s - rhs))
    # The standard model fl(x op y) = (x op y)(1 + d) + e has an absolute
    # underflow term |e| <= smallest_subnormal / 2 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, section 2.1), which A carries
    # into the residual.  A subnormal rhs leaves a residual of a few
    # subnormal spacings that no relative bound covers.
    norm = np.linalg.norm(dense, np.inf)
    underflow = 4.0 * norm * np.finfo(float).smallest_subnormal
    assert residual <= 1e-14 * (norm * np.max(np.abs(s)) + np.max(np.abs(rhs))) + underflow


@BAND_SETTINGS
@given(band_systems(), st.data())
def test_band_solve_raises_on_a_zero_column(system, data):
    dense, rhs = system
    dense[:, data.draw(st.integers(0, dense.shape[0] - 1))] = 0.0
    with pytest.raises(AssemblyError, match="no nonzero pivot"):
        _solve_band(band_storage(dense), rhs)
