"""Reference computations made apart from gvikit.

Every check here uses numpy arithmetic of its own: its own operators,
its own projections (found through one or two scalar multiplier roots),
its own tridiagonal solve and its own closed form of the obstacle
solution.  Nothing imports gvikit, so a fault in the package cannot
hide itself by agreeing with its own reference.
"""

from __future__ import annotations

import math

import numpy as np

# Every solver in the benchmark stops on a residual or displacement of
# 1e-7 (the SolveConfig default).  The natural residual at step 1 and
# the distance to a known solution may exceed that by the factor 1/rho
# and by the operator's condition, so the checks allow two decades.
RES_TOL = 1e-5
SOL_TOL = 1e-5
FEAS_TOL = 1e-9


# ---------------------------------------------------------------- operators


def stencil_T(x):
    """example3's operator M x - 1 with M = tridiag(-1, 4, -1), in O(n)."""
    out = 4.0 * x - 1.0
    out[1:] -= x[:-1]
    out[:-1] -= x[1:]
    return out


def thomas_solution(n):
    """Solve tridiag(-1, 4, -1) x = 1 by the Thomas algorithm."""
    c = np.empty(n)
    d = np.empty(n)
    c[0], d[0] = -1.0 / 4.0, 1.0 / 4.0
    for i in range(1, n):
        denom = 4.0 + c[i - 1]
        c[i] = -1.0 / denom
        d[i] = (1.0 + d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def diagonal_T(n):
    """example4's operator diag(1..n)/n x - 1."""
    d = np.arange(1, n + 1) / n
    return lambda x: d * x - 1.0


def example2_T(x):
    """example2's four-dimensional nonlinear operator, written out again."""
    return np.array(
        [
            x[2] + x[3] - x[1],
            x[0] - (4.5 * x[2] + 2.7 * x[3]) / (x[1] + 1.0),
            5.0 - x[0] - (0.5 * x[2] + 0.3 * x[3]) / (x[2] + 1.0),
            3.0 - x[0],
        ]
    )


# ------------------------------------------------------------- projections


def _root_decreasing(f):
    """Root of a continuous nonincreasing scalar function, to the last bit."""
    lo, hi = -1.0, 1.0
    while f(lo) < 0.0:
        lo *= 2.0
        if lo < -1e300:
            raise ArithmeticError("no sign change below")
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("no sign change above")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


class Region:
    """A box or a scaled simplex, optionally cut by one hyperplane a.x = b."""

    def __init__(self, kind, lo=None, hi=None, total=None, a=None, b=None):
        if kind not in ("box", "simplex"):
            raise ValueError(kind)
        self.kind, self.lo, self.hi, self.total, self.a, self.b = kind, lo, hi, total, a, b

    def _base(self, z, w):
        # argmin 0.5 * sum w (x - z)^2 over the base set.
        if self.kind == "box":
            return np.clip(z, self.lo, self.hi)
        lam = _root_decreasing(lambda t: float(np.maximum(z - t / w, 0.0).sum()) - self.total)
        return np.maximum(z - lam / w, 0.0)

    def project(self, z, w=None):
        """argmin of 0.5 * sum w (x - z)^2 over the region (w defaults to 1)."""
        w = np.ones_like(z) if w is None else w
        if self.a is None:
            return self._base(z, w)
        shift = self.a / w
        theta = _root_decreasing(lambda t: float(self.a @ self._base(z - t * shift, w)) - self.b)
        return self._base(z - theta * shift, w)

    def infeasibility(self, x):
        if self.kind == "box":
            out = max(float(np.max(self.lo - x)), float(np.max(x - self.hi)), 0.0)
        else:
            out = max(-float(np.min(x)), abs(float(x.sum()) - self.total))
        if self.a is not None:
            out = max(out, abs(float(self.a @ x) - self.b) / max(1.0, abs(self.b)))
        return out


def natural_residual(region, u, Tu):
    """||u - P(u - T(u))||, the KKT residual of the VI at step 1."""
    return float(np.linalg.norm(u - region.project(u - Tu)))


def vi_report(region, u, Tu, u_star=None):
    """Error message for a claimed VI solution, or None when it checks out."""
    if not np.all(np.isfinite(u)):
        return "non-finite solution"
    infeas = region.infeasibility(u)
    if infeas > FEAS_TOL:
        return f"infeasible by {infeas:.3e}"
    res = natural_residual(region, u, Tu)
    if res > RES_TOL:
        return f"natural residual {res:.3e} > {RES_TOL:.0e}"
    if u_star is not None:
        err = float(np.max(np.abs(u - u_star)))
        if err > SOL_TOL:
            return f"distance to reference {err:.3e} > {SOL_TOL:.0e}"
    return None


# ---------------------------------------------------------------- obstacle

_ROOT = complex(-0.5, math.sqrt(3.0) / 2.0)


def _middle_rows(x):
    """Rows (value, u', u'') of the basis e^x, Re e^{rx}, Im e^{rx}, r^3 = 1."""
    rows = []
    for k in range(3):
        z = _ROOT**k * np.exp(_ROOT * x)
        rows.append([math.exp(x), z.real, z.imag])
    return np.array(rows)


def _obstacle_constants():
    # Unknowns: A (u = A x^2/2 on [0, 1/4]), B, C, E (u = 1 + B e^x +
    # C Re e^{rx} + E Im e^{rx} on [1/4, 3/4]), F, G (u = F x(x-2)/2 + G
    # on [3/4, 1]).  Rows: u, u', u'' agree at 1/4 and at 3/4.
    m = np.zeros((6, 6))
    rhs = np.zeros(6)
    x = 0.25
    left = [x * x / 2.0, x, 1.0]
    mid = _middle_rows(x)
    for k in range(3):
        m[k, 0] = left[k]
        m[k, 1:4] = -mid[k]
    rhs[0] = 1.0
    x = 0.75
    right = [(x * (x - 2.0) / 2.0, 1.0), (x - 1.0, 0.0), (1.0, 0.0)]
    mid = _middle_rows(x)
    for k in range(3):
        m[3 + k, 1:4] = mid[k]
        m[3 + k, 4], m[3 + k, 5] = -right[k][0], -right[k][1]
    rhs[3] = -1.0
    return np.linalg.solve(m, rhs)


_OBSTACLE = _obstacle_constants()


def obstacle_solution(x):
    """Closed-form solution of -u''' + [u >= psi](u - psi) = 0 on [0, 1].

    psi = 1 on [1/4, 3/4] and -1 elsewhere; u(0) = u'(0) = u'(1) = 0.
    """
    A, B, C, E, F, G = _OBSTACLE
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        if xi <= 0.25:
            out[i] = A * xi * xi / 2.0
        elif xi <= 0.75:
            z = np.exp(_ROOT * xi)
            out[i] = 1.0 + B * math.exp(xi) + C * z.real + E * z.imag
        else:
            out[i] = F * xi * (xi - 2.0) / 2.0 + G
    return out


OBSTACLE_GRIDS = (15, 31, 63, 127)
# The error must at least nearly halve with each halving of h.
OBSTACLE_MIN_RATIO = 1.8
OBSTACLE_COMPLEMENTARITY_TOL = 1e-8


def obstacle_report(grids):
    """Error message for grid solutions {n: s} of the obstacle benchmark, or None."""
    errors = {}
    for n, s in grids.items():
        if s.shape != (n + 2,) or not np.all(np.isfinite(s)):
            return f"grid {n}: bad solution vector"
        h = 1.0 / (n + 1)
        x = h * np.arange(n + 2)
        errors[n] = float(np.max(np.abs(s - obstacle_solution(x))))
        # Five-point central third difference; -u''' >= 0 must hold
        # wherever u is off the obstacle.
        d3 = (s[4:] - 2.0 * s[3:-1] + 2.0 * s[1:-3] - s[:-4]) / (2.0 * h**3)
        psi = np.where((x >= 0.25) & (x <= 0.75), 1.0, -1.0)[2:-2]
        worst = float(np.max(np.abs(np.minimum(-d3, 0.0) * (s[2:-2] - psi))))
        if worst > OBSTACLE_COMPLEMENTARITY_TOL:
            return f"grid {n}: complementarity violated by {worst:.3e}"
    ns = sorted(errors)
    for coarse, fine in zip(ns, ns[1:]):
        if not errors[coarse] >= OBSTACLE_MIN_RATIO * errors[fine]:
            return f"error {errors[fine]:.3e} at n={fine} does not halve {errors[coarse]:.3e}"
    return None


# ------------------------------------------------------------- convexity

# Verdicts that follow in closed form for each builtin function on the
# domain its sampler draws from.  (class, expected verdict) pairs.
CERT_EXPECTED = {
    # |y|^2 meets the p = 2, mu = 1 inequality with equality.
    "quadratic": (("hos-convex", "pass"), ("gradient", "pass")),
    # Affine functions meet the mu = 0 form with equality.
    "affine": (("hos-convex", "pass"), ("gradient", "pass")),
    # y^4 is convex on [-1, 1].
    "quartic": (("hos-convex", "pass"),),
    # sin is strictly concave on (0, pi), so any mu > 0 form fails.
    "sine": (("hos-convex", "fail"), ("gradient", "fail")),
    # exp(y^2) is convex and the g-image u^2 of [0, 2] is an interval.
    "exp-square": (("hos-convex", "pass"),),
    # exp(erf(sqrt(y))) is concave on (0, 4]: exp-concave, not exp-convex.
    "erf-sqrt": (("exp-concave", "pass"), ("exp-convex", "fail")),
    # exp(log(1 + y^2)) = 1 + y^2 is convex.
    "log1p-square": (("exp-convex", "pass"),),
    # sqrt|y| is not convex, yet log-convex => convex => quasiconvex holds.
    "abs-sqrt": (("hos-convex", "fail"), ("hierarchy", "pass")),
}

# The p = 2 parallelogram law is an identity at mu = 1 and fails above it.
PARALLELOGRAM_EXPECTED = (((2.0, 1.0), "pass"), ((2.0, 1.5), "fail"))
