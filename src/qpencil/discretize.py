"""Discretizations of ``-(p y')' + q y = lam r y`` on (0, 1) with y(0) = y(1) = 0.

Finite differences on a uniform interior grid give a tridiagonal stiffness
matrix and a diagonal weight matrix.  Two finite-element weight (mass)
matrices are also provided: linear tent elements, whose mass matrix is
tridiagonal but has a dense inverse square root, and a discontinuous
per-cell monomial basis, whose mass matrix is block diagonal.

Sign convention: the stiffness matrix discretizes the operator directly, so
its diagonal carries ``+(p_{j-1/2} + p_{j+1/2})`` and its off-diagonals are
negative.  With ``p > 0`` and ``q >= 0`` the spectrum is then positive and
the unit-coefficient eigenvalues converge to ``(j pi)^2`` from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveCoefficient
from .linalg import BandedHermitian, BlockDiagonalPD

_GAUSS2 = (-0.5 / np.sqrt(3.0), 0.5 / np.sqrt(3.0))


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient on [0, 1]: a constant, a polynomial, or samples.

    Samples are taken on a uniform grid spanning [0, 1] and evaluated by
    linear interpolation.
    """

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("constant", "poly", "samples"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        data = np.asarray(self.data, dtype=float)
        if self.kind == "constant" and data.shape != (1,):
            raise ValueError("constant coefficient takes a single value")
        if self.kind == "poly" and (data.ndim != 1 or data.size == 0):
            raise ValueError("polynomial coefficient takes a 1-d coefficient list")
        if self.kind == "samples" and (data.ndim != 1 or data.size < 2):
            raise ValueError("sampled coefficient needs at least two values")
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def constant(cls, c: float) -> "Coefficient":
        return cls("constant", np.array([float(c)]))

    @classmethod
    def polynomial(cls, coeffs) -> "Coefficient":
        """Polynomial with coefficients ordered from degree zero upward."""
        return cls("poly", np.asarray(coeffs, dtype=float))

    @classmethod
    def from_samples(cls, values) -> "Coefficient":
        return cls("samples", np.asarray(values, dtype=float))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.data[0])
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, self.data)
        grid = np.linspace(0.0, 1.0, self.data.size)
        return np.interp(x, grid, self.data)

    @property
    def degree(self):
        """Polynomial degree, or None for sampled data."""
        if self.kind == "constant":
            return 0
        if self.kind == "poly":
            return int(self.data.size - 1)
        return None


def as_coefficient(value) -> Coefficient:
    """Coerce a plain number or array into a :class:`Coefficient`."""
    if isinstance(value, Coefficient):
        return value
    if np.isscalar(value):
        return Coefficient.constant(float(value))
    return Coefficient.from_samples(value)


@dataclass(frozen=True)
class SturmLiouvilleSpec:
    """Coefficients of the weighted eigenvalue problem; p and r must stay positive."""

    p: Coefficient
    q: Coefficient
    r: Coefficient

    def __post_init__(self):
        object.__setattr__(self, "p", as_coefficient(self.p))
        object.__setattr__(self, "q", as_coefficient(self.q))
        object.__setattr__(self, "r", as_coefficient(self.r))


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid: ``n`` points ``x_j = j dx`` with ``dx = 1/(n+1)``."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid needs at least one interior point, got {self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.dx

    @property
    def half_nodes(self) -> np.ndarray:
        """Midpoints ``x_{j+1/2}`` for j = 0..n."""
        return (np.arange(0, self.n + 1) + 0.5) * self.dx


def require_positive(values: np.ndarray, name: str, where: str) -> None:
    """Raise :class:`NonPositiveCoefficient` unless every value is positive."""
    if (values <= 0.0).any():
        worst = float(values.min())
        raise NonPositiveCoefficient(
            f"{name} must be positive {where}; minimum evaluated value {worst:g}")


def build_sl_generalized(spec: SturmLiouvilleSpec, grid: GridSpec):
    """Assemble the pencil (A, B) of the finite-difference discretization.

    ``A`` is tridiagonal with diagonal
    ``(p_{j-1/2} + p_{j+1/2} + q_j dx^2) / dx^2`` and off-diagonal
    ``-p_{j+1/2} / dx^2``; ``B`` is the diagonal weight matrix ``diag(r_j)``.
    """
    dx = grid.dx
    ph = spec.p(grid.half_nodes)
    require_positive(ph, "p", "at the half-grid points")
    qv = spec.q(grid.nodes)
    rv = spec.r(grid.nodes)
    require_positive(rv, "r", "at the grid points")
    inv_dx2 = 1.0 / (dx * dx)
    diag = (ph[:-1] + ph[1:] + qv * dx * dx) * inv_dx2
    off = -ph[1:-1] * inv_dx2
    A = BandedHermitian(grid.n, min(1, grid.n - 1),
                        (diag,) if grid.n == 1 else (diag, off))
    B = BlockDiagonalPD.from_diagonal(rv)
    return A, B


def build_sl_reduced(spec: SturmLiouvilleSpec, grid: GridSpec) -> BandedHermitian:
    """Assemble the weight-absorbed tridiagonal operator directly.

    Identical (entry by entry) to applying the square-root reduction to the
    output of :func:`build_sl_generalized`, since the weight is diagonal:
    the diagonal is divided by ``r_j`` and the off-diagonal by
    ``sqrt(r_j r_{j+1})``.
    """
    dx = grid.dx
    ph = spec.p(grid.half_nodes)
    require_positive(ph, "p", "at the half-grid points")
    qv = spec.q(grid.nodes)
    rv = spec.r(grid.nodes)
    require_positive(rv, "r", "at the grid points")
    inv_dx2 = 1.0 / (dx * dx)
    rs = np.sqrt(rv)
    diag = (ph[:-1] + ph[1:] + qv * dx * dx) * inv_dx2 / rv
    if grid.n == 1:
        return BandedHermitian(1, 0, (diag,))
    off = -ph[1:-1] * inv_dx2 / (rs[:-1] * rs[1:])
    return BandedHermitian(grid.n, 1, (diag, off))


def _interval_integral(f, xa: float, xb: float, cubic_exact: bool) -> float:
    """Integrate ``f`` over [xa, xb].

    Simpson's rule (exact through cubics, rational weights) when the
    integrand is a polynomial of degree at most three on the interval,
    two-point Gauss otherwise.
    """
    h = xb - xa
    xm = 0.5 * (xa + xb)
    if cubic_exact:
        return (h / 6.0) * (f(xa) + 4.0 * f(xm) + f(xb))
    g0 = xm + h * _GAUSS2[0]
    g1 = xm + h * _GAUSS2[1]
    return 0.5 * h * (f(g0) + f(g1))


def build_fem_mass_tent(r, grid: GridSpec) -> BandedHermitian:
    """Weight (mass) matrix for linear tent elements on the interior grid.

    Each basis function spans two cells of width ``dx``, so the matrix is
    tridiagonal.  For unit weight it equals ``(dx / 6) tridiag(1, 4, 1)``.
    Integrals are exact whenever the weight is linear on every cell.
    """
    r = as_coefficient(r)
    n, dx = grid.n, grid.dx
    # Linear per cell: constants, degree <= 1 polynomials, or samples whose
    # breakpoints coincide with the grid nodes.
    cubic = (r.kind == "constant" or (r.kind == "poly" and r.degree <= 1)
             or (r.kind == "samples" and r.data.size == n + 2))
    xs = np.arange(0, n + 2) * dx
    checks = r(np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0]))
    require_positive(checks, "r", "on the element mesh")

    diag = np.zeros(n)
    off = np.zeros(max(n - 1, 0))
    for e in range(n + 1):
        xa, xb = xs[e], xs[e + 1]

        def down(x):
            return (xb - x) / dx

        def up(x):
            return (x - xa) / dx

        j_desc = e  # basis function falling across this cell (1-based index e)
        j_asc = e + 1
        if 1 <= j_desc <= n:
            diag[j_desc - 1] += _interval_integral(
                lambda x: r(x) * down(x) ** 2, xa, xb, cubic)
        if 1 <= j_asc <= n:
            diag[j_asc - 1] += _interval_integral(
                lambda x: r(x) * up(x) ** 2, xa, xb, cubic)
        if 1 <= j_desc and j_asc <= n:
            off[j_desc - 1] += _interval_integral(
                lambda x: r(x) * down(x) * up(x), xa, xb, cubic)
    if n == 1:
        return BandedHermitian(1, 0, (diag,))
    return BandedHermitian(n, 1, (diag, off))


def _cell_moments(r: Coefficient, x_left: float, h: float, top: int) -> np.ndarray:
    """Exact weighted moments ``int_cell r(x) ((x - x_left)/h)^s dx`` for s = 0..top.

    All three coefficient forms are polynomial or piecewise polynomial, so
    the moments have closed forms.
    """
    s = np.arange(top + 1)
    if r.kind == "constant":
        return r.data[0] * h / (s + 1.0)
    if r.kind == "poly":
        # Re-expand r around the cell: r(x_left + h t) as a polynomial in t.
        shifted = np.polynomial.polynomial.Polynomial(r.data)(
            np.polynomial.polynomial.Polynomial([x_left, h]))
        coeffs = shifted.coef
        mom = np.zeros(top + 1)
        for e, ce in enumerate(coeffs):
            mom += ce * h / (e + s + 1.0)
        return mom
    # Piecewise-linear samples: integrate each linear piece intersected
    # with the cell in closed form.
    grid = np.linspace(0.0, 1.0, r.data.size)
    mom = np.zeros(top + 1)
    x_right = x_left + h
    for i in range(r.data.size - 1):
        u = max(grid[i], x_left)
        v = min(grid[i + 1], x_right)
        if v <= u:
            continue
        beta = (r.data[i + 1] - r.data[i]) / (grid[i + 1] - grid[i])
        alpha = r.data[i] - beta * grid[i]
        tu = (u - x_left) / h
        tv = (v - x_left) / h
        mom += h * ((alpha + beta * x_left) * (tv ** (s + 1) - tu ** (s + 1)) / (s + 1.0)
                    + beta * h * (tv ** (s + 2) - tu ** (s + 2)) / (s + 2.0))
    return mom


def build_fem_mass_dg(r, n_cells: int, order: int) -> BlockDiagonalPD:
    """Block-diagonal weight matrix for a discontinuous per-cell basis.

    Each cell carries the non-orthogonal monomial basis ``((x - x_c)/h)^a``
    for ``a = 0..order``, giving one dense Gram block per cell; the blocks
    are dense even for unit weight.  ``order = 0`` degenerates to a diagonal
    matrix of weighted cell widths.
    """
    r = as_coefficient(r)
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    h = 1.0 / n_cells
    edges = np.arange(n_cells + 1) * h
    checks = r(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0]))
    require_positive(checks, "r", "on the cell mesh")
    blocks = []
    for c in range(n_cells):
        mom = _cell_moments(r, edges[c], h, 2 * order)
        a = np.arange(order + 1)
        blocks.append(mom[a[:, None] + a[None, :]])
    return BlockDiagonalPD(tuple([order + 1] * n_cells), tuple(blocks))
