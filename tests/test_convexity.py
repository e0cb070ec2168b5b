"""Sampling certification of convexity-type function classes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gvikit.convexity_lab import (
    FunctionUnderTest,
    _pow,
    builtin_functions,
    check_exp_convex,
    check_gradient_char,
    check_hierarchy,
    check_hos_convex,
    check_parallelogram,
    default_t_grid,
    exp_convex_violation,
    exp_gradient_violation,
    gradient_char_violation,
    hierarchy_violation,
    hos_convex_violation,
    parallelogram_violation,
)
from gvikit.errors import NumericDomainError
from oracles import loop_certificate


@pytest.fixture(scope="module")
def registry():
    return builtin_functions()


def test_registry_contents(registry):
    assert set(registry) == {
        "quadratic", "affine", "quartic", "sine",
        "exp-square", "erf-sqrt", "log1p-square", "abs-sqrt",
    }


def test_default_t_grid_contents():
    grid = default_t_grid()
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert 0.5 in grid
    assert np.all(np.diff(grid) > 0)


def test_quadratic_is_strongly_convex_with_unit_modulus(registry):
    curve = check_hos_convex(registry["quadratic"], samples=300)
    grad = check_gradient_char(registry["quadratic"], samples=300)
    assert curve.passed and curve.worst_violation <= 1e-12
    assert grad.passed and grad.worst_violation <= 1e-8
    assert curve.verdict == grad.verdict


def test_affine_fails_any_positive_modulus(registry):
    aff = replace(registry["affine"], mu=0.5)
    assert check_hos_convex(aff, samples=100).verdict == "fail"
    assert check_gradient_char(aff, samples=100).verdict == "fail"
    assert check_hos_convex(registry["affine"], samples=100).verdict == "pass"


def test_composed_square_passes_plain_form(registry):
    assert check_hos_convex(registry["exp-square"], samples=300).verdict == "pass"


def test_quartic_passes_plain_form(registry):
    assert check_hos_convex(registry["quartic"], samples=300).verdict == "pass"


def test_sine_fails_with_concave_witness(registry):
    grad = check_gradient_char(registry["sine"], samples=300)
    curve = check_hos_convex(registry["sine"], samples=300)
    assert grad.verdict == "fail" and curve.verdict == "fail"
    u, v, _ = curve.witness
    assert 0.0 <= u[0] <= np.pi and 0.0 <= v[0] <= np.pi


def test_witness_reproduces_reported_violation(registry):
    report = check_hos_convex(registry["sine"], samples=300)
    u, v, t = report.witness
    again = hos_convex_violation(registry["sine"], u, v, t)
    assert abs(again - report.worst_violation) <= 1e-14


def test_parallelogram_quartic_law_admits_unit_modulus():
    report = check_parallelogram(4.0, 1.0, samples=2000, dim=1)
    assert report.passed
    assert report.details["mu_lower"] >= 1.0


def test_parallelogram_square_law_is_an_identity():
    report = check_parallelogram(2.0, 1.0, samples=2000, dim=3)
    assert report.passed
    assert report.details["equality_violation"] <= 1e-12
    assert report.details["mu_lower"] == pytest.approx(1.0, abs=1e-10)
    assert report.details["mu_upper"] == pytest.approx(1.0, abs=1e-10)


def test_parallelogram_rejects_oversized_modulus():
    report = check_parallelogram(2.0, 1.5, samples=500, dim=3)
    assert report.verdict == "fail"
    u, v, _ = report.witness
    assert abs(parallelogram_violation(2.0, 1.5, u, v) - report.worst_violation) <= 1e-14


def test_exp_convexity_of_shifted_square(registry):
    assert check_exp_convex(registry["log1p-square"], samples=300).verdict == "pass"


def test_exp_concavity_flips_the_inequality(registry):
    assert check_exp_convex(registry["erf-sqrt"], samples=300, concave=True).verdict == "pass"
    assert check_exp_convex(registry["erf-sqrt"], samples=300).verdict == "fail"


def test_constant_function_passes_plain_but_not_strong():
    const = FunctionUnderTest(
        F=lambda y: 3.0,
        grad_F=lambda y: np.zeros(np.atleast_1d(y).size),
        domain_sampler=lambda rng: rng.uniform(-1, 1, 2),
        mu=0.7,
    )
    plain = check_exp_convex(const, samples=100)
    assert plain.passed and abs(plain.worst_violation) <= 1e-9 * np.exp(3)
    assert check_exp_convex(const, samples=100, strong=True).verdict == "fail"


def test_strong_exp_convexity_with_differential_leg():
    sq = FunctionUnderTest(
        F=lambda y: float(y @ y),
        grad_F=lambda y: 2.0 * np.asarray(y),
        domain_sampler=lambda rng: rng.uniform(-1, 1, 2),
        mu=0.5,
    )
    report = check_exp_convex(sq, samples=300, strong=True)
    assert report.passed
    assert "differential" in report.details


def test_hierarchy_holds_for_positive_convex_function():
    xsq1 = FunctionUnderTest(
        F=lambda y: float(y[0] ** 2) + 1.0,
        domain_sampler=lambda rng: rng.uniform(-1.5, 1.5, 1),
    )
    report = check_hierarchy(xsq1, samples=300)
    scale = np.exp(1.5**2 + 1.0)
    assert report.passed
    assert report.details["log"] <= 1e-9 * scale
    assert report.details["convex"] <= 1e-9 * scale


def test_hierarchy_implications_survive_nonconvexity(registry):
    report = check_hierarchy(registry["abs-sqrt"], samples=400)
    assert report.passed
    assert report.details["convex"] > 1e-6
    assert report.details["quasi"] <= 1e-9 * np.e


def test_exp_convex_witness_reproduces(registry):
    report = check_exp_convex(registry["erf-sqrt"], samples=50)
    u, v, t = report.witness
    assert abs(exp_convex_violation(registry["erf-sqrt"], u, v, t) - report.worst_violation) <= 1e-14


@pytest.mark.parametrize("strong", [False, True])
def test_exp_gradient_violation_reproduces_the_differential_witness(registry, strong):
    # On sine the differential leg is the worst one, so the witness pair
    # alone must give back the reported violation.
    sine = registry["sine"]
    report = check_exp_convex(sine, samples=50, strong=strong)
    u, v, _ = report.witness
    assert exp_gradient_violation(sine, u, v, strong=strong) == report.worst_violation
    assert report.worst_violation == report.details["differential"] > 0.0


def test_gradient_falls_back_to_central_differences(registry):
    exact = registry["quadratic"]
    differenced = replace(exact, grad_F=None)
    y = np.array([0.3, -1.2, 1.9])
    np.testing.assert_allclose(differenced.gradient(y), exact.gradient(y), rtol=0.0, atol=1e-7)
    report = check_gradient_char(differenced, seed=3)
    assert report.passed and report.checked_count == 200
    assert report.worst_violation <= 1e-8


def test_reports_are_deterministic_per_seed(registry):
    first = check_hos_convex(registry["sine"], samples=120, seed=11)
    second = check_hos_convex(registry["sine"], samples=120, seed=11)
    other = check_hos_convex(registry["sine"], samples=120, seed=12)
    assert first.worst_violation == second.worst_violation
    np.testing.assert_array_equal(first.witness[0], second.witness[0])
    assert first.checked_count == second.checked_count
    assert other.worst_violation != first.worst_violation


def test_function_under_test_validation():
    with pytest.raises(ValueError):
        FunctionUnderTest(F=lambda y: 0.0, domain_sampler=lambda rng: rng.uniform(0, 1, 1), p=1.0)
    with pytest.raises(ValueError):
        FunctionUnderTest(F=lambda y: 0.0, domain_sampler=lambda rng: rng.uniform(0, 1, 1), mu=-0.1)


def _counted(fut):
    """fut with F and grad_F wrapped to count their calls."""
    calls = {"F": 0, "grad_F": 0}

    def F(y):
        calls["F"] += 1
        return fut.F(y)

    def grad_F(y):
        calls["grad_F"] += 1
        return fut.grad_F(y)

    return replace(fut, F=F, grad_F=grad_F), calls


@pytest.mark.parametrize("t_grid", [None, [0.0, 0.25, 1.0]])
@pytest.mark.parametrize("check, grad_per_pair", [
    (check_hos_convex, 0),
    (check_exp_convex, 1),
    (check_hierarchy, 0),
])
def test_blend_checks_evaluate_F_once_per_point(registry, check, grad_per_pair, t_grid):
    fut, calls = _counted(registry["quadratic"])
    report = check(fut, samples=40, t_grid=t_grid)
    n_t = len(default_t_grid() if t_grid is None else t_grid)
    assert report.checked_count == 40 * n_t
    assert calls == {"F": 40 * (2 + n_t), "grad_F": 40 * grad_per_pair}


def test_gradient_check_evaluates_each_end_once(registry):
    fut, calls = _counted(registry["quadratic"])
    report = check_gradient_char(fut, samples=40)
    assert report.checked_count == 40
    assert calls == {"F": 80, "grad_F": 80}


def test_overflowed_samples_are_not_counted():
    # e^1000 overflows, so every pair with an end above 1 tests nothing; on
    # [-1, 1] alone e^{-y^2} is not convex.
    fut = FunctionUnderTest(
        F=lambda y: 1000.0 if y[0] > 1 else -float(y[0] ** 2),
        domain_sampler=lambda rng: rng.uniform(-1, 1.5, 1),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_exp_convex(fut, samples=200)
        hierarchy = check_hierarchy(fut, samples=200)
    assert report.verdict == "fail"
    assert 0 < report.checked_count < 2200
    assert report.witness[0][0] <= 1 and report.witness[1][0] <= 1
    assert 0 < hierarchy.checked_count < 2200


def test_overflow_at_the_blend_point_alone_is_a_violation():
    # Between finite ends, e^1000 at the blend point exceeds any finite bound.
    bump = FunctionUnderTest(
        F=lambda y: 1000.0 if abs(y[0]) < 0.1 else 0.0,
        domain_sampler=lambda rng: rng.uniform(-1, 1, 1),
    )
    report = check_exp_convex(bump, samples=200)
    assert report.verdict == "fail" and report.worst_violation == np.inf
    u, v, t = report.witness
    assert abs(u[0]) >= 0.1 and abs(v[0]) >= 0.1
    assert check_hierarchy(bump, samples=200).details["convex"] == np.inf


def test_nan_value_tests_nothing():
    # Ends are drawn outside the hole, so only blend points hit the NaN.  It
    # fails every hierarchy premise, so the implication violation alone
    # reads -inf; the NaN legs still exclude the triple.
    holed = FunctionUnderTest(
        F=lambda y: np.nan if abs(y[0]) < 0.1 else float(y[0] ** 2),
        domain_sampler=lambda rng: rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0, 1),
    )
    report = check_hierarchy(holed, samples=200)
    assert 0 < report.checked_count < 200 * len(default_t_grid())
    assert all(np.isfinite(value) for value in report.details.values())


def test_one_huge_value_does_not_set_the_tolerance_of_every_triple():
    # e^F nears 1e300 at the ends of [-6, 6]; violations between smaller
    # values are judged against their own triple's scale, not that one.
    fut = FunctionUnderTest(
        F=lambda y: float(y[0] ** 4 - 10.0 * y[0] ** 2),
        domain_sampler=lambda rng: rng.uniform(-6.0, 6.0, 1),
    )
    assert check_exp_convex(fut, samples=200).verdict == "fail"


def _flat(scale, mu):
    """F = 0 with p = 3 on uniform(-1, 1, 1)*scale."""
    return FunctionUnderTest(F=lambda y: 0.0, domain_sampler=lambda rng: scale * rng.uniform(-1, 1, 1), p=3.0, mu=mu)


@pytest.mark.parametrize("scale", [1e110, 1e200])
@pytest.mark.parametrize("check", [check_hos_convex, check_gradient_char])
def test_an_overflowing_growth_term_is_judged(check, scale):
    # ||g(v) - g(u)||^3 overflows: Python's pow raises at 1e110, and at 1e200
    # the gap itself is inf.  The growth term is then inf, or exactly 0 at
    # mu = 0, where F = 0 meets the inequality on every sample.
    assert check(_flat(scale, 0.0), samples=5).verdict == "pass"
    strong = check(_flat(scale, 0.5), samples=5)
    assert strong.verdict == "fail" and strong.worst_violation == np.inf


def test_parallelogram_with_an_overflowing_constant_tests_nothing():
    # 2^(p-1) overflows for p > 1025, so every right-hand side is inf.
    with pytest.raises(NumericDomainError):
        check_parallelogram(2000.0, 0.0, samples=5)


def test_power_is_python_pow_with_inf_for_overflow():
    x = np.array([0.0, 0.3, 1.7, 1e110, np.inf])
    with np.errstate(over="ignore"):  # as in every sweep: the raised overflow leaves its flag set
        powers = _pow(x, 3.0)
    assert powers.tolist() == [pow(0.0, 3.0), pow(0.3, 3.0), pow(1.7, 3.0), np.inf, np.inf]


@pytest.mark.parametrize("check", [check_exp_convex, check_hierarchy])
def test_all_overflow_raises(check):
    fut = FunctionUnderTest(F=lambda y: 1000.0, domain_sampler=lambda rng: rng.uniform(-1, 1, 1))
    with pytest.raises(NumericDomainError):
        check(fut, samples=20)


@pytest.mark.parametrize("samples", [0, -3])
def test_every_check_rejects_nonpositive_samples(registry, samples):
    fut = registry["quadratic"]
    for check in (check_hos_convex, check_gradient_char, check_exp_convex, check_hierarchy):
        with pytest.raises(ValueError, match="samples"):
            check(fut, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        check_parallelogram(2.0, 1.0, samples=samples)


def test_gradient_and_hierarchy_witnesses_reproduce(registry):
    grad = check_gradient_char(registry["sine"], samples=100)
    u, v, t = grad.witness
    assert t is None and gradient_char_violation(registry["sine"], u, v) == grad.worst_violation
    hier = check_hierarchy(registry["abs-sqrt"], samples=100)
    assert hierarchy_violation(registry["abs-sqrt"], *hier.witness) == hier.worst_violation


def _redrawn_pairs(samples, seed=0):
    """The pairs a sweep draws on uniform(-1, 1, 1): u, then v, per sample."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-1, 1, 1)[0], rng.uniform(-1, 1, 1)[0]) for _ in range(samples)]


def test_gradient_check_skips_pairs_with_a_nan_gradient_at_either_end():
    # A NaN gradient at v leaves only the monotonicity leg NaN; the pair
    # must still test nothing.
    fut = FunctionUnderTest(
        F=lambda y: float(y @ y),
        grad_F=lambda y: np.array([np.nan]) if y[0] > 0.5 else 2.0 * y,
        domain_sampler=lambda rng: rng.uniform(-1, 1, 1),
    )
    both_defined = sum(u <= 0.5 and v <= 0.5 for u, v in _redrawn_pairs(200))
    assert both_defined == 96
    assert check_gradient_char(fut, samples=200).checked_count == both_defined


def test_a_nan_end_costs_only_its_two_end_evaluations():
    fut, calls = _counted(FunctionUnderTest(
        F=lambda y: np.nan if y[0] > 0.9 else float(y[0] ** 2),
        domain_sampler=lambda rng: rng.uniform(-1, 1, 1),
    ))
    finite = sum(u <= 0.9 and v <= 0.9 for u, v in _redrawn_pairs(200))
    n_t = len(default_t_grid())
    report = check_hos_convex(fut, samples=200)
    assert report.checked_count == n_t * finite == 1958
    assert calls["F"] == 2 * 200 + n_t * finite == 2358


@pytest.mark.parametrize("kind, fid, strong, t_grid", [
    ("hos", "sine", False, None),
    ("hos", "quadratic", False, [0.0, 0.3, 1.0]),
    ("gradient", "quadratic", False, None),
    ("gradient", "sine", False, None),
    ("exp", "quadratic", True, None),
    ("exp", "sine", False, [0.0, 0.3, 1.0]),
    ("exp", "exp-square", False, None),
    ("hierarchy", "abs-sqrt", False, None),
    ("hierarchy", "exp-square", False, [0.0, 0.3, 1.0]),
    *[pytest.param(kind, (scale, mu), False, None, id=f"{kind}-flat-{scale:g}-mu{mu:g}")
      for kind in ("hos", "gradient") for scale in (1e110, 1e200) for mu in (0.0, 0.5)],
])
def test_sweep_reproduces_the_per_triple_loop_bit_for_bit(registry, kind, fid, strong, t_grid):
    # The flat cases overflow the growth power: inf, or exactly 0 at mu = 0.
    fut = registry[fid] if isinstance(fid, str) else _flat(*fid)
    grid = [float(t) for t in (default_t_grid() if t_grid is None else t_grid)]
    count, worst, witness, verdict, high = loop_certificate(kind, fut, 60, 5, grid, strong)
    report = {
        "hos": lambda: check_hos_convex(fut, samples=60, t_grid=t_grid, seed=5),
        "gradient": lambda: check_gradient_char(fut, samples=60, seed=5),
        "exp": lambda: check_exp_convex(fut, samples=60, t_grid=t_grid, seed=5, strong=strong),
        "hierarchy": lambda: check_hierarchy(fut, samples=60, t_grid=t_grid, seed=5),
    }[kind]()
    assert (report.checked_count, report.worst_violation, report.verdict) == (count, worst, verdict)
    assert type(report.worst_violation) is float
    for got, expected in zip(report.witness, witness):
        np.testing.assert_array_equal(got, expected)
    details = {"exp": high, "hierarchy": {"log": -np.inf, **high}}.get(kind)
    assert report.details == details
