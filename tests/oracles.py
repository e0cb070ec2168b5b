"""Independent oracles used by the test suite.

Expected values are re-derived through routes that share no code with
the package: brute-force grid search for small variational
inequalities, symbolic algebra for norm identities, finite differences
for gradients and third derivatives, direct evaluation of printed
closed forms, per-entry loops that the obstacle module's and the
convexity sweep's array code must reproduce bit for bit, the dense matrix and dense solve that
example3's stencil and closed-form solution replace, enumeration of
every active set for the projection onto a box or simplex cut by a
hyperplane, at sizes no enumeration reaches, a check of that
projection's optimality conditions, the projection residual and a
sampled Lipschitz bound over a box by a bare clip, and the gap over a
box in exact rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy as sp


def grid_search_box2(T, lo=0.0, hi=1.0, coarse=1e-2, fine=1e-4):
    """Brute-force solve of a VI on a 2-d box, coarse scan refined once.

    Minimizes the natural residual ||x - clip(x - T(x), lo, hi)||_inf
    over a coarse lattice, then rescans a one-cell window around the
    winner at the fine step.  Projection is a bare clip, independent of
    the package's set machinery.
    """

    def residual(points):
        vals = np.array([p - np.clip(p - T(p), lo, hi) for p in points])
        return np.max(np.abs(vals), axis=1)

    axis = np.arange(lo, hi + coarse / 2, coarse)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()])
    best = points[np.argmin(residual(points))]

    lo_w = np.maximum(best - coarse, lo)
    hi_w = np.minimum(best + coarse, hi)
    ax0 = np.arange(lo_w[0], hi_w[0] + fine / 2, fine)
    ax1 = np.arange(lo_w[1], hi_w[1] + fine / 2, fine)
    xs, ys = np.meshgrid(ax0, ax1, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()])
    return points[np.argmin(residual(points))]


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for k in range(x.size):
        step = np.zeros(x.size)
        step[k] = h
        out[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def fd_third_derivative(f, x, h=1e-3):
    """Five-point central third derivative of a scalar function."""
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2.0 * h**3)


def p1_h1(u, z):
    """Printed piecewise gap value of the scalar control instance.

    The projection argument collapses to z^2 - z + 1, independent of u,
    so the distance term is (z^2 - z)^2 exactly when z lies in (0, 1)
    and vanishes otherwise.
    """
    if 0.0 < z < 1.0:
        return 0.5 * (z + u - 1.0) ** 2 - 0.5 * (z * z - z) ** 2
    return 0.5 * (z + u - 1.0) ** 2


def p1_solution_branches(count=50):
    """Sampled points of both printed branches of the solution set.

    Branch one: u = 1 - z with z outside (0, 1).  Branch two:
    u = 1 - z^2 with z inside (0, 1).
    """
    z_outer = np.concatenate(
        [np.linspace(-3.0, 0.0, count - count // 2), np.linspace(1.0, 4.0, count // 2)]
    )
    branch1 = np.column_stack([1.0 - z_outer, z_outer])
    z_inner = np.linspace(0.02, 0.98, count)
    branch2 = np.column_stack([1.0 - z_inner**2, z_inner])
    return branch1, branch2


def p1_feasible_samples(count, rng):
    """Feasible (u, z) samples of the control instance: u + z^2 >= 1."""
    z = rng.uniform(-2.0, 2.0, count)
    u = 1.0 - z**2 + rng.uniform(0.0, 3.0, count)
    return np.column_stack([u, z])


def parallelogram_identity_residuals():
    """Symbolic residuals behind the norm-power laws.

    Returns the expanded difference for the squared-norm identity
    (exactly zero) and for the fourth-power lower law at modulus one in
    one dimension, which factors as 6(u^2 - v^2)^2 >= 0.
    """
    u, v = sp.symbols("u v", real=True)
    quad = sp.expand((u + v) ** 2 + (v - u) ** 2 - 2 * u**2 - 2 * v**2)
    quartic_margin = sp.expand(
        8 * (u**4 + v**4) - (u + v) ** 4 - (v - u) ** 4 - 6 * (u**2 - v**2) ** 2
    )
    return quad, quartic_margin


def quadratic_energy_value():
    """Symbolic bending energy of v(x) = x^2 with zero load on [0, 1]."""
    x = sp.symbols("x")
    v = x**2
    return float(sp.integrate(sp.diff(v, x, 2) ** 2, (x, 0, 1)))


def _obstacle_nodes(problem, n):
    h = (problem.b - problem.a) / (n + 1)
    x = problem.a + h * np.arange(n + 2)
    sigma = (x > problem.c + 1e-12) & (x <= problem.d + 1e-12)
    p = np.array([problem.p(xi) for xi in x], dtype=float)
    t = np.array([problem.f(xi) for xi in x], dtype=float) + np.where(sigma, problem.r, 0.0)
    return h, sigma, p, t


def loop_spline_system(problem, n):
    """Band matrix and rhs of the obstacle spline system, scattered one entry at a time."""
    h, sigma, p, t = _obstacle_nodes(problem, n)
    rows = [([3.0, -4.0, 1.0], [3.0, 4.0, 1.0], 0, -2.0 * h * problem.beta1)]
    rows += [([-1.0, 3.0, -3.0, 1.0], [1.0, 5.0, 5.0, 1.0], i - 2, 0.0) for i in range(2, n)]
    rows.append(([-3.0, 8.0, -5.0], [3.0, 16.0, 19.0, 6.0], n - 2, -2.0 * h * problem.beta2))
    ab, rhs = np.zeros((4, n)), np.zeros(n)
    for row, (coeffs, weights, j0, extra) in enumerate(rows):
        rhs[row] = extra
        for j, coeff in enumerate(coeffs, j0):
            if 1 <= j <= n:
                ab[1 + row - (j - 1), j - 1] += coeff
            else:
                rhs[row] -= coeff * (problem.alpha if j == 0 else 0.0)
        for k, w in enumerate(np.array(weights) * (h**3 / 12.0), j0):
            rhs[row] += w * t[k]
            if sigma[k] and 1 <= k <= n:
                ab[1 + row - (k - 1), k - 1] -= w * p[k]
            elif sigma[k]:
                rhs[row] += w * p[k] * (problem.alpha if k == 0 else 0.0)
    return ab, rhs


def loop_knot_slopes(problem, s):
    """Spline slopes at the knots from the consistency relation, node by node."""
    n = s.size - 2
    h, sigma, p, t = _obstacle_nodes(problem, n)
    t = t + np.where(sigma, p * s, 0.0)
    slopes = [problem.beta1]
    for i in range(1, n + 1):
        slopes.append((s[i + 1] - s[i - 1] - (h**3 / 12.0) * (t[i + 1] + 2.0 * t[i] + t[i - 1])) / (2.0 * h))
    return np.array(slopes + [problem.beta2])


def loop_complementarity(s, problem):
    """Largest |min(-D3 s_i - f_i, 0) (s_i - psi_i)| over interior nodes, node by node."""
    n = s.size - 2
    h = (problem.b - problem.a) / (n + 1)
    worst = 0.0
    for i in range(2, n):
        x = problem.a + h * i
        d3 = (s[i + 2] - 2.0 * s[i + 1] + 2.0 * s[i - 1] - s[i - 2]) / (2.0 * h**3)
        worst = max(worst, abs(min(-d3 - problem.f(x), 0.0) * (s[i] - problem.psi(x))))
    return worst


def box_projection_residual(T, lo, hi, u, rho):
    """||u - min(max(u - rho T(u), lo), hi)||, the projection residual over a box, by a bare clip."""
    u = np.asarray(u, dtype=float)
    return float(np.linalg.norm(u - np.minimum(np.maximum(u - rho * np.asarray(T(u), dtype=float), lo), hi)))


def box_gap(T, lo, hi, u, rho):
    """max over v in [lo, hi] of rho <T(u), u - v> - ||u - v||^2 / 2, in exact rationals.

    The maximizer is the clip of u - rho T(u), taken coordinate by
    coordinate in ``fractions.Fraction``, so nothing rounds before the
    final float.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(T(u), dtype=float)
    rho = Fraction(rho)
    total = Fraction(0)
    for ui, ti, a, b in zip(map(Fraction, u.tolist()), map(Fraction, t.tolist()), lo.tolist(), hi.tolist()):
        step = ui - min(max(ui - rho * ti, Fraction(a)), Fraction(b))
        total += rho * ti * step - step * step / 2
    return float(total)


def box_lipschitz_sample(T, lo, hi, dim, trials=20, seed=0, eps=1e-4):
    """Largest sampled ||T(x + eps*d) - T(x)|| / eps over unit directions d.

    Each base point x is a standard normal draw clipped to the box
    [lo, hi] by a bare clip, and d is the next standard normal draw,
    normalized, both from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = np.minimum(np.maximum(rng.standard_normal(dim), lo), hi)
        d = rng.standard_normal(dim)
        d /= max(np.linalg.norm(d), 1e-30)
        diff = np.asarray(T(x + eps * d), dtype=float) - np.asarray(T(x), dtype=float)
        worst = max(worst, float(np.linalg.norm(diff)) / eps)
    return worst


def example3_dense(n):
    """example3's matrix M = tridiag(-1, 4, -1), stored densely, and the dense solve of M x = 1."""
    M = np.diag(4.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    return M, np.linalg.solve(M, np.ones(n))


def kkt_cut_bruteforce(base, a, b, z, anchor=None):
    """Projection of z onto base ∩ {x : a.(x - anchor) = b} by active-set enumeration.

    ``base`` is read only through its fields: ``lo``/``hi`` for a box,
    ``total`` for a simplex, neither for the nonnegative orthant.  A box
    (n <= 5) tries all 3^n lower/free/upper patterns, skipping infinite
    bounds; a simplex tries all 2^n - 1 supports.  Each pattern fixes some
    coordinates and solves the KKT system of the least-squares problem on
    the rest, with the hyperplane (and the simplex total) as equality
    constraints, by ``lstsq``.  The nearest candidate that satisfies the
    constraints and the bounds is the projection, because the projection
    lies in the relative interior of one face and is that face's
    candidate.  Returns None when no pattern is feasible.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    n = z.size
    ref = np.zeros(n) if anchor is None else np.asarray(anchor, dtype=float)
    target = b + float(a @ ref)
    tol = 1e-11 * (1.0 + np.abs(a) @ (np.abs(z) + np.abs(ref)) + abs(b))
    simplex = hasattr(base, "total")
    if simplex:
        lo, hi = np.zeros(n), np.full(n, np.inf)
        patterns = [np.where(np.array(on), 1, 0) for on in itertools.product((False, True), repeat=n) if any(on)]
    else:
        lo = np.asarray(getattr(base, "lo", np.zeros(n)), dtype=float) * np.ones(n)
        hi = np.asarray(getattr(base, "hi", np.full(n, np.inf)), dtype=float) * np.ones(n)
        patterns = [np.array(p) for p in itertools.product((0, 1, 2), repeat=n)]
    best = None
    for pattern in patterns:
        # 0: at lo, 1: free, 2: at hi
        if np.any(np.isinf(lo) & (pattern == 0)) or np.any(np.isinf(hi) & (pattern == 2)):
            continue
        free = pattern == 1
        x = np.where(pattern == 0, lo, np.where(pattern == 2, hi, 0.0))
        rows = [a[free]]
        rhs = [target - sum(a[i] * x[i] for i in range(n) if not free[i])]
        if simplex:
            rows.append(np.ones(free.sum()))
            rhs.append(base.total)
        k, m = free.sum(), len(rows)
        kkt = np.zeros((k + m, k + m))
        kkt[:k, :k] = np.eye(k)
        for j, row in enumerate(rows):
            kkt[:k, k + j] = row
            kkt[k + j, :k] = row
        sol = np.linalg.lstsq(kkt, np.concatenate((z[free], rhs)), rcond=None)[0]
        x[free] = sol[:k]
        if abs(float(a @ x) - target) > tol or (simplex and abs(x.sum() - base.total) > tol):
            continue
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            continue
        dist = float(np.sum((x - z) ** 2))
        if best is None or dist < best[0]:
            best = (dist, x)
    return None if best is None else best[1]


def kkt_cut_residual(base, a, b, z, anchor, x):
    """How far x is from the projection of z onto base ∩ {w : a.(w - anchor) = b}, for any n.

    ``base`` is read only through its fields, as in ``kkt_cut_bruteforce``.
    The multiplier is recovered from x alone: over a box, by least squares
    on the free coordinates, where x_i = z_i - theta*a_i; over a simplex,
    by fitting x_i = z_i - theta*a_i - tau on the support, where tau keeps
    the total.  Then x must equal min(max(z - theta*a, lo), hi) or
    max(z - theta*a - tau, 0) coordinate by coordinate, lie in the base and
    satisfy the cut.  Returns the largest of these misses, each relative to
    the magnitudes it was computed from, so a correct x gives a few units of
    rounding.  Raises ValueError if the free coordinates or the support do
    not determine the multiplier.
    """
    a, z, x = (np.asarray(v, dtype=float) for v in (a, z, x))
    n = z.size
    ref = np.zeros(n) if anchor is None else np.asarray(anchor, dtype=float)
    r = z - x
    if hasattr(base, "total"):
        support = x > 0
        a_s, r_s = a[support], r[support]
        spread = a_s - a_s.mean()
        if not np.any(spread != 0):
            raise ValueError("the support does not determine the multiplier")
        theta = float(spread @ (r_s - r_s.mean())) / float(spread @ spread)
        tau = float(np.mean(r_s - theta * a_s))
        expected = np.maximum(z - theta * a - tau, 0.0)
        scale = np.abs(z) + np.abs(theta * a) + abs(tau)
        total_miss = abs(float(np.sum(x)) - base.total) / (float(np.sum(np.abs(x))) + base.total)
        outside = max(float(np.max(-x)) / float(np.max(x)), total_miss)
    else:
        lo = np.asarray(getattr(base, "lo", np.zeros(n)), dtype=float) * np.ones(n)
        hi = np.asarray(getattr(base, "hi", np.full(n, np.inf)), dtype=float) * np.ones(n)
        free = (lo < x) & (x < hi) & (a != 0)
        if not np.any(free):
            raise ValueError("no free coordinate determines the multiplier")
        theta = float(a[free] @ r[free]) / float(a[free] @ a[free])
        expected = np.minimum(np.maximum(z - theta * a, lo), hi)
        scale = np.abs(z) + np.abs(theta * a)
        outside = 0.0 if np.all((lo <= x) & (x <= hi)) else np.inf
    coordinate_miss = float(np.max(np.abs(x - expected) / np.maximum(scale, np.finfo(float).tiny)))
    cut_miss = abs(float(a @ (x - ref)) - b) / (float(np.abs(a) @ (np.abs(x) + np.abs(ref))) + abs(b))
    return max(coordinate_miss, outside, cut_miss)


def _power(x, p):
    """x ** p, inf where Python's float power overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _growth(coef, power):
    """coef * power, exactly 0 for a zero coefficient even where the power is inf."""
    return 0.0 if coef == 0.0 else coef * power


def _triple_legs(kind, fut, yu, yv, Fu, Fv, eu, ev, gap, t, strong):
    """(violation, legs) of one triple by the scalar formulas, Python floats throughout."""
    if kind == "hos":
        p, mu = fut.p, fut.mu
        weight = mu * (_power(t, p) * (1.0 - t) + t * _power(1.0 - t, p))
        bound = (1.0 - t) * Fu + t * Fv - _growth(weight, _power(gap, p))
        return fut.value(yu + t * (yv - yu)) - bound, {}
    if kind == "gradient":
        grad_u, grad_v = fut.gradient(yu), fut.gradient(yv)
        power = _power(gap, fut.p)
        lower = Fu + float(grad_u @ (yv - yu)) + _growth(fut.mu, power) - Fv
        mono = _growth(2.0 * fut.mu, power) - float((grad_u - grad_v) @ (yu - yv))
        return (np.nan if np.isnan(mono) else max(lower, mono)), {}
    e_mid = float(np.exp(fut.value(yu + t * (yv - yu))))
    if kind == "exp":
        mu = fut.mu if strong else 0.0
        legs = {"curve": e_mid - ((1.0 - t) * eu + t * ev - _growth(mu * t * (1.0 - t), _power(gap, 2.0)))}
        if fut.grad_F is not None:
            legs["differential"] = float(eu * fut.gradient(yu) @ (yv - yu)) + _growth(mu, _power(gap, 2.0)) - (ev - eu)
        return max(legs.values()), legs
    legs = {"convex": e_mid - ((1.0 - t) * eu + t * ev), "quasi": e_mid - max(eu, ev)}
    worst = -np.inf
    if Fu > 0 and Fv > 0:
        legs["log"] = e_mid - eu ** (1.0 - t) * ev**t
        if legs["log"] <= 1e-12:
            worst = max(worst, legs["convex"])
    if legs["convex"] <= 1e-12:
        worst = max(worst, legs["quasi"])
    return worst, legs


def loop_certificate(kind, fut, samples, seed, t_grid, strong=False):
    """A convexity sweep as a per-triple loop.

    kind is "hos", "gradient", "exp" or "hierarchy".  Draws u, then v, per
    sample; skips a pair whose scale (|F| or e^F at the ends) is not
    finite, and a triple with a NaN among its values; keeps the first
    strictly worst triple.  Returns (checked_count, worst_violation,
    witness, verdict, high), with high the largest value of each leg.
    """
    rng = np.random.default_rng(seed)
    count, worst, witness, failed, high = 0, -np.inf, None, False, {}
    for _ in range(samples):
        u = fut.domain_sampler(rng)
        v = fut.domain_sampler(rng)
        yu, yv = fut.g_image(u), fut.g_image(v)
        Fu, Fv = fut.value(yu), fut.value(yv)
        with np.errstate(over="ignore"):
            eu, ev = float(np.exp(Fu)), float(np.exp(Fv))
            gap = float(np.linalg.norm(yv - yu))  # inf where the squared norm overflows
        exp_scale = kind in ("exp", "hierarchy")
        if not all(np.isfinite((eu, ev) if exp_scale else (Fu, Fv))):
            continue
        scale = max(eu, ev) if exp_scale else max(abs(Fu), abs(Fv))
        for t in [None] if kind == "gradient" else t_grid:
            with np.errstate(over="ignore", invalid="ignore"):
                viol, legs = _triple_legs(kind, fut, yu, yv, Fu, Fv, eu, ev, gap, t, strong)
            if any(np.isnan(x) for x in (viol, *legs.values())):
                continue
            count += 1
            failed = failed or viol > 1e-9 * max(1.0, scale)
            if viol > worst:
                worst, witness = viol, (u, v, t)
            for leg, value in legs.items():
                high[leg] = max(high.get(leg, -np.inf), value)
    return count, worst, witness, "fail" if failed else "pass", high
