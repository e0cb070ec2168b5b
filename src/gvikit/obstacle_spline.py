"""Cubic-spline discretization of a third-order obstacle boundary value problem.

The penalized obstacle problem -u''' + {u >= psi}(u - psi) = f on (a, b)
with u(a), u'(a), u'(b) prescribed turns into a piecewise linear ODE:
u''' = f outside the contact interval (c, d] and u''' = p*u + f + r
inside.  A cubic spline with consistency relations at the knots yields a
banded linear system in the grid values; its solution feeds spline
coefficient recovery, error tables against the closed-form solution of
the benchmark instance, and energy/complementarity diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, GridError


@dataclass(frozen=True)
class ObstacleProblem:
    """Data of the third-order obstacle boundary value problem.

    f is the source term, p the coefficient multiplying u on the contact
    interval (c, d], r the constant shift there, and alpha, beta1, beta2
    the boundary data u(a), u'(a), u'(b).  psi is the obstacle, used
    only by the diagnostics.
    """

    a: float
    b: float
    f: Callable
    p: Callable
    r: float
    alpha: float
    beta1: float
    beta2: float
    psi: Callable
    c: Optional[float] = None
    d: Optional[float] = None

    def __post_init__(self):
        if self.c is None:
            object.__setattr__(self, "c", (3.0 * self.a + self.b) / 4.0)
        if self.d is None:
            object.__setattr__(self, "d", (self.a + 3.0 * self.b) / 4.0)
        if not self.a < self.c < self.d < self.b:
            raise ValueError("interface points must satisfy a < c < d < b")


@dataclass(frozen=True)
class SplineSystem:
    """Banded system in the interior grid values s_1 ... s_n.

    matrix holds the diagonal-ordered band of the n x n matrix A, with 1
    superdiagonal and 2 subdiagonals: matrix[1 + i - j, j] = A[i, j],
    and the corners outside A are zero.  rhs is the right-hand side.
    solve_grid solves it by band LU with partial pivoting.
    """

    n: int
    h: float
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class PiecewiseCubic:
    """Piecewise cubic on the breakpoints x.

    Column i of c holds (a_i, b_i, c_i, d_i), the piece a_i t^3 + b_i t^2
    + c_i t + d_i in t = x - x_i on [x_i, x_{i+1}).  Calling it evaluates
    at points; points outside [x_0, x_last] use the end pieces.
    """

    c: np.ndarray
    x: np.ndarray

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        i = np.clip(np.searchsorted(self.x, points, side="right") - 1, 0, self.c.shape[1] - 1)
        t = points - self.x[i]
        a, b, c, d = self.c[:, i]
        return ((a * t + b) * t + c) * t + d


def _grid(problem, n):
    h = (problem.b - problem.a) / (n + 1)
    x = problem.a + h * np.arange(n + 2)
    return h, x


def _region_mask(problem, x):
    # Contact interval is open at c, closed at d, matching the grid
    # convention that (n+1)/4 and 3(n+1)/4 are integers.
    return (x > problem.c + 1e-12) & (x <= problem.d + 1e-12)


def _at_nodes(fn, x):
    return np.array([fn(xi) for xi in x], dtype=float)


def _operator_values(problem, sigma, s, f_at, p_at):
    """T_i = f_i outside the contact region and p_i s_i + f_i + r inside."""
    t = f_at + np.where(sigma, problem.r, 0.0)
    return t + np.where(sigma, p_at * s, 0.0)


def _require_finite(problem, x, scalars, **at_nodes):
    """Raise AssemblyError naming the first datum that is inf or nan.

    scalars names fields of problem; at_nodes maps the name of a function
    of the problem to its values at the nodes x.
    """
    for name in scalars:
        if not np.isfinite(getattr(problem, name)):
            raise AssemblyError(f"{name} = {getattr(problem, name)} is not finite")
    for name, values in at_nodes.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise AssemblyError(f"{name}({x[bad[0]]}) = {values[bad[0]]} is not finite")


def assemble(problem, n):
    """Build the banded spline system for n interior unknowns.

    The interior rows carry the (-1, 3, -3, 1) stencil on s and
    (1, 5, 5, 1)h^3/12 weights on T; the boundary rows inject u'(a) and
    u'(b).  The s-dependent part of T on the contact interval is folded
    into the matrix.

    Parameters
    ----------
    problem : ObstacleProblem
    n : int
        Interior grid count; n + 1 must be divisible by 4.

    Returns
    -------
    SplineSystem

    Raises
    ------
    GridError
        When n + 1 is not divisible by 4.
    AssemblyError
        When r, alpha, beta1, beta2, or f or p at a grid node, is inf or
        nan; the message names that datum.
    """
    if n < 4 or (n + 1) % 4 != 0:
        raise GridError("n + 1 must be divisible by 4 (and n >= 4)")
    h, x = _grid(problem, n)
    sigma = _region_mask(problem, x)
    f_at, p_at = _at_nodes(problem.f, x), _at_nodes(problem.p, x)
    _require_finite(problem, x, ("r", "alpha", "beta1", "beta2"), f=f_at, p=p_at)
    t_known = f_at + np.where(sigma, problem.r, 0.0)  # T with the p*s part left out
    # Row i of the system (node i = 1..n) couples nodes i-2 .. i+1: the
    # stencil acts on s there and the weights on T.
    stencil = np.tile([-1.0, 3.0, -3.0, 1.0], (n, 1))
    weights = np.tile([1.0, 5.0, 5.0, 1.0], (n, 1))
    stencil[0], weights[0] = [0.0, 3.0, -4.0, 1.0], [0.0, 3.0, 4.0, 1.0]
    # The paper prints (3, 10, 31) as the right row's T-weights; (3, 16,
    # 19, 6) is what the exact derivation of that closure gives.
    stencil[-1], weights[-1] = [-3.0, 8.0, -5.0, 0.0], [3.0, 16.0, 19.0, 6.0]
    weights *= h**3 / 12.0
    nodes = np.arange(1, n + 1)[:, None] + np.arange(-2, 2)
    unknown = (nodes >= 1) & (nodes <= n)
    at = np.clip(nodes, 0, n + 1)

    # The p*s part of T on the contact interval moves into the matrix
    # (node 0 is never in contact, as a < c, and the right closure drops
    # it at node n+1); column c of a row lands on band row 3 - c.
    coupling = stencil - np.where(unknown & sigma[at], weights * p_at[at], 0.0)
    ab = np.zeros((4, n))
    row, col = np.nonzero(unknown)
    ab[3 - col, row + col - 2] = coupling[row, col]

    rhs = np.zeros(n)
    rhs[0], rhs[-1] = -2.0 * h * problem.beta1, -2.0 * h * problem.beta2
    known_s = nodes == 0  # s_0 = u(a)
    rhs[known_s.any(axis=1)] -= stencil[known_s] * problem.alpha
    for c in range(4):
        rhs += weights[:, c] * t_known[at[:, c]]
    return SplineSystem(n=n, h=h, matrix=ab, rhs=rhs)


def _solve_band(ab, rhs):
    """Solve A s = rhs for the (2, 1)-band A of SplineSystem.matrix.

    Gaussian elimination with partial pivoting inside the band, as
    LAPACK's gbsv does: step k swaps the largest of rows k .. k+2 in
    column k to the top.  A row swapped up from k+2 reaches column k+3,
    so U carries two superdiagonals of fill.  Each step updates two rows
    of five numbers, so the loop runs on Python floats.  Raises
    AssemblyError when column k has no nonzero pivot.
    """
    n = rhs.size
    band = np.pad(ab, ((0, 0), (2, 2)))
    # rows[i] is row i of A over columns i-2 .. i+1, then rhs[i].
    rows = np.column_stack([band[3, :n], band[2, 1:n + 1], band[1, 2:n + 2], band[0, 3:n + 3], rhs]).tolist()
    # Rows k .. k+2 over columns k .. k+3, then their right-hand sides.
    window = [rows[i][2 - i:4] + [0.0] * (2 - i) + rows[i][4:] for i in range(min(3, n))]
    upper = []
    for k in range(n):
        top = 0
        for r in range(1, len(window)):
            if abs(window[r][0]) > abs(window[top][0]):
                top = r
        window[0], window[top] = window[top], window[0]
        u = window[0]
        if u[0] == 0.0:
            raise AssemblyError(f"singular spline system: no nonzero pivot in column {k}")
        upper.append(u)
        shifted = []
        for r in window[1:]:
            m = r[0] / u[0]
            shifted.append([r[1] - m * u[1], r[2] - m * u[2], r[3] - m * u[3], 0.0, r[4] - m * u[4]])
        window = shifted + rows[k + 3:k + 4]

    s = [0.0] * (n + 3)
    for k in range(n - 1, -1, -1):
        u = upper[k]
        s[k] = (u[4] - u[1] * s[k + 1] - u[2] * s[k + 2] - u[3] * s[k + 3]) / u[0]
    return np.array(s[:n])


def solve_grid(problem, n):
    """Solve the spline system and return the full grid s_0 ... s_{n+1}.

    The interior values come from band LU with partial pivoting on the
    assembled system; s_0 is the boundary value u(a), and s_{n+1}
    follows from the interior recurrence evaluated at the last knot.

    Parameters
    ----------
    problem : ObstacleProblem
    n : int

    Returns
    -------
    ndarray of length n + 2

    Raises
    ------
    AssemblyError
        When a datum is not finite (see assemble), a column has no
        nonzero pivot, or the solution overflows.
    """
    system = assemble(problem, n)
    interior = _solve_band(system.matrix, system.rhs)
    if not np.all(np.isfinite(interior)):
        raise AssemblyError("spline system produced non-finite values")
    h, x = _grid(problem, n)
    s = np.concatenate([[problem.alpha], interior, [0.0]])  # s_{n+1} is set below
    sigma = _region_mask(problem, x)
    t = _operator_values(problem, sigma, s, _at_nodes(problem.f, x), _at_nodes(problem.p, x))
    s[n + 1] = s[n - 2] - 3.0 * s[n - 1] + 3.0 * s[n] + (h**3 / 12.0) * (
        t[n - 2] + 5.0 * t[n - 1] + 5.0 * t[n] + t[n + 1]
    )
    return s


def spline_fit(problem, s):
    """Recover the piecewise cubic from grid values.

    The knot slopes come from the first-derivative consistency relation,
    with the prescribed u'(a) and u'(b) at the ends; each piece is
    a_i t^3 + b_i t^2 + c_i t + d_i in t = x - x_i.  The pieces are C2
    at the interior knots.

    Parameters
    ----------
    problem : ObstacleProblem
    s : ndarray
        Full grid vector of length n + 2 from solve_grid.

    Returns
    -------
    PiecewiseCubic
        c of shape (4, n + 1) and the n + 2 grid points as x.

    Raises
    ------
    AssemblyError
        When r, beta1, beta2, or f or p at a grid node, is inf or nan;
        the message names that datum.
    """
    n = s.size - 2
    h, x = _grid(problem, n)
    sigma = _region_mask(problem, x)
    f_at, p_at = _at_nodes(problem.f, x), _at_nodes(problem.p, x)
    _require_finite(problem, x, ("r", "beta1", "beta2"), f=f_at, p=p_at)
    t = _operator_values(problem, sigma, s, f_at, p_at)

    dvals = np.empty(n + 2)
    dvals[0] = problem.beta1
    dvals[n + 1] = problem.beta2
    dvals[1:-1] = (s[2:] - s[:-2] - (h**3 / 12.0) * (t[2:] + 2.0 * t[1:-1] + t[:-2])) / (2.0 * h)

    a_c = (t[:-1] + t[1:]) / 12.0
    b_c = (s[1:] - s[:-1]) / h**2 - dvals[:-1] / h - a_c * h
    return PiecewiseCubic(np.vstack([a_c, b_c, dvals[:-1], s[:-1]]), x)


_SQ3 = np.sqrt(3.0)


def _middle_basis(x):
    """Value, first, and second derivative rows of (e^x, e^{-x/2}cos, e^{-x/2}sin)."""
    E = np.exp(-x / 2.0)
    cth, sth = np.cos(_SQ3 * x / 2.0), np.sin(_SQ3 * x / 2.0)
    val = (np.exp(x), E * cth, E * sth)
    der = (np.exp(x), E * (-0.5 * cth - (_SQ3 / 2.0) * sth), E * (-0.5 * sth + (_SQ3 / 2.0) * cth))
    dd = (np.exp(x), E * (-0.5 * cth + (_SQ3 / 2.0) * sth), E * (-0.5 * sth - (_SQ3 / 2.0) * cth))
    return val, der, dd


@lru_cache(maxsize=1)
def analytic_constants():
    """Constants of the closed-form benchmark solution.

    The three pieces (quadratic; 1 + combination of e^x and damped
    trigonometric modes; shifted quadratic) are glued by continuity of
    u, u', u'' at x = 1/4 and x = 3/4, a dense 6-by-6 solve.
    """
    m = np.zeros((6, 6))
    rhs = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])

    # Rows 0-2 match the value, slope and curvature at 1/4, rows 3-5 at 3/4.
    xq = 0.25
    m[:3, 0] = [xq**2 / 2.0, xq, 1.0]
    m[:3, 1:4] = -np.array(_middle_basis(xq))
    xq = 0.75
    m[3:, 1:4] = _middle_basis(xq)
    m[3:, 4] = [-xq * (xq - 2.0) / 2.0, -(xq - 1.0), -1.0]
    m[3, 5] = -1.0
    return np.linalg.solve(m, rhs)


def analytic_solution(x):
    """Closed-form solution of the benchmark obstacle instance on [0, 1].

    Quadratic up to 1/4, then 1 plus exponential/damped-oscillatory
    modes up to 3/4, then a quadratic meeting u'(1) = 0.
    """
    a1, a2, a3, a4, a5, a6 = analytic_constants()
    x = np.asarray(x, dtype=float)
    val, _, _ = _middle_basis(x)
    middle = 1.0 + a2 * val[0] + a3 * val[1] + a4 * val[2]
    out = np.where(
        x <= 0.25,
        0.5 * a1 * x**2,
        np.where(x <= 0.75, middle, 0.5 * a5 * x * (x - 2.0) + a6),
    )
    return out if out.ndim else float(out)


def benchmark_problem():
    """Obstacle instance with f = 0, p = 1, r = -1, zero boundary data.

    The obstacle is -1 off the contact interval and +1 on [1/4, 3/4],
    the configuration whose closed-form solution analytic_solution
    evaluates.
    """
    return ObstacleProblem(
        a=0.0,
        b=1.0,
        f=lambda x: 0.0,
        p=lambda x: 1.0,
        r=-1.0,
        alpha=0.0,
        beta1=0.0,
        beta2=0.0,
        psi=lambda x: 1.0 if 0.25 <= x <= 0.75 else -1.0,
    )


def max_error(problem, n, exact=analytic_solution):
    """Max grid deviation of the spline solution from a reference.

    Parameters
    ----------
    problem : ObstacleProblem
    n : int
    exact : callable
        Reference solution; defaults to the benchmark closed form.

    Returns
    -------
    float
    """
    s = solve_grid(problem, n)
    _, x = _grid(problem, n)
    return float(np.max(np.abs(s - _at_nodes(exact, x))))


def _trapezoid(y, h):
    # scipy.integrate.trapezoid's formula, so the sum rounds as it does there.
    return np.sum(h * (y[1:] + y[:-1]) / 2.0)


def discrete_energy(problem, v):
    """Trapezoid energy int (v'')^2 - 2 int f v' of a grid function.

    Derivatives are formed by repeated second-order differences, so the
    value is a diagnostic, not a quadrature-exact energy.

    Parameters
    ----------
    problem : ObstacleProblem
    v : ndarray
        Grid vector on the uniform grid including both endpoints.

    Returns
    -------
    float

    Raises
    ------
    AssemblyError
        When f at a grid node is inf or nan; the message names it.
    """
    v = np.asarray(v, dtype=float)
    if v.size < 3:
        raise ValueError("energy needs at least 3 grid values")
    h = (problem.b - problem.a) / (v.size - 1)
    x = problem.a + h * np.arange(v.size)
    f_at = _at_nodes(problem.f, x)
    _require_finite(problem, x, (), f=f_at)
    dv = np.gradient(v, h, edge_order=2)
    ddv = np.gradient(dv, h, edge_order=2)
    return float(_trapezoid(ddv**2, h) - 2.0 * _trapezoid(f_at * dv, h))


def complementarity_check(s, problem):
    """Max one-sided complementarity violation over interior nodes.

    The obstacle formulation requires -u''' - f >= 0; the violation at a
    node is |min(-D3 s_i - f_i, 0) * (s_i - psi_i)| with D3 the
    five-point central third difference.  Diagnostic only.

    Parameters
    ----------
    s : ndarray
        Full grid vector (length n + 2).
    problem : ObstacleProblem

    Returns
    -------
    float
    """
    s = np.asarray(s, dtype=float)
    n = s.size - 2
    h, x = _grid(problem, n)
    i = np.arange(2, n)
    d3 = (s[i + 2] - 2.0 * s[i + 1] + 2.0 * s[i - 1] - s[i - 2]) / (2.0 * h**3)
    residual = np.minimum(-d3 - _at_nodes(problem.f, x[i]), 0.0)
    # fmax skips a NaN node, as the builtin max over nodes did.
    return float(np.fmax.reduce(np.abs(residual * (s[i] - _at_nodes(problem.psi, x[i]))), initial=0.0))
