import numpy as np
import pytest

from qpencil.analysis import fill_fraction, hermitian_inv_sqrt, oracle_eigensolve
from qpencil.discretize import (
    Coefficient,
    GridSpec,
    SturmLiouvilleSpec,
    build_fem_mass_dg,
    build_fem_mass_tent,
    build_sl_generalized,
    build_sl_reduced,
)
from qpencil.errors import NonPositiveCoefficient
from qpencil.jacobi import eigh_jacobi
from qpencil.linalg import block_powers
from qpencil.reduction import reduce_sqrt

ONE = Coefficient.constant(1.0)
ZERO = Coefficient.constant(0.0)


def unit_spec(q=ZERO, r=ONE, p=ONE):
    return SturmLiouvilleSpec(p, q, r)


CORPUS = [
    unit_spec(),
    SturmLiouvilleSpec(ONE, ZERO, Coefficient.polynomial([1.0, 1.0])),
    SturmLiouvilleSpec(Coefficient.polynomial([1.0, 0.5]), ZERO, ONE),
    SturmLiouvilleSpec(ONE, Coefficient.constant(5.0), ONE),
    SturmLiouvilleSpec(Coefficient.polynomial([2.0, 0.0, 1.0]),
                       Coefficient.polynomial([0.0, 1.0]),
                       Coefficient.polynomial([1.0, 1.0, 1.0])),
    SturmLiouvilleSpec(ONE, Coefficient.polynomial([-0.5, 1.0]), ONE),
    SturmLiouvilleSpec(Coefficient.from_samples(np.linspace(1.0, 3.0, 17)), ZERO, ONE),
    SturmLiouvilleSpec(ONE, ZERO, Coefficient.from_samples(1.0 + np.linspace(0, 1, 17) ** 2)),
    SturmLiouvilleSpec(Coefficient.polynomial([1.0, -0.9]), Coefficient.constant(2.0),
                       Coefficient.polynomial([0.5, 0.2])),
    SturmLiouvilleSpec(Coefficient.constant(0.7), Coefficient.polynomial([1.0, 0.0, -0.8]),
                       Coefficient.constant(2.5)),
]


# ---------------------------------------------------------------- coefficient


def test_coefficient_forms():
    assert Coefficient.constant(2.5)(np.array([0.0, 0.7])).tolist() == [2.5, 2.5]
    poly = Coefficient.polynomial([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    assert poly(0.5) == pytest.approx(1 + 1 + 0.75)
    samp = Coefficient.from_samples([0.0, 1.0, 0.0])
    assert samp(0.25) == pytest.approx(0.5)
    assert samp.degree is None


def test_grid_spec():
    grid = GridSpec(3)
    assert grid.dx == 0.25
    assert np.allclose(grid.nodes, [0.25, 0.5, 0.75])
    assert np.allclose(grid.half_nodes, [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        GridSpec(0)


# ------------------------------------------------------------ finite difference


def test_unit_coefficients_give_scaled_laplacian():
    A, B = build_sl_generalized(unit_spec(), GridSpec(3))
    expected = 16.0 * (np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1)
                       + np.diag([-1.0, -1.0], -1))
    assert np.abs(A.to_dense() - expected).max() == 0.0
    assert np.abs(B.to_dense() - np.eye(3)).max() == 0.0


def test_constant_weight_rescales_spectrum():
    grid = GridSpec(9)
    A1, B1 = build_sl_generalized(unit_spec(), grid)
    Ac, Bc = build_sl_generalized(unit_spec(r=Coefficient.constant(3.0)), grid)
    w1, _ = oracle_eigensolve(A1, B1)
    wc, _ = oracle_eigensolve(Ac, Bc)
    assert np.abs(wc - w1 / 3.0).max() <= 1e-12 * np.abs(w1).max()


def test_constant_q_shifts_spectrum():
    grid = GridSpec(9)
    A0, B0 = build_sl_generalized(unit_spec(), grid)
    A5, B5 = build_sl_generalized(unit_spec(q=Coefficient.constant(5.0)), grid)
    w0, _ = oracle_eigensolve(A0, B0)
    w5, _ = oracle_eigensolve(A5, B5)
    assert np.abs(w5 - (w0 + 5.0)).max() <= 1e-12 * np.abs(w5).max()


def test_reduced_equals_generalized_for_unit_weight():
    grid = GridSpec(6)
    A, _ = build_sl_generalized(unit_spec(), grid)
    H = build_sl_reduced(unit_spec(), grid)
    assert np.abs(A.to_dense() - H.to_dense()).max() == 0.0


@pytest.mark.parametrize("spec", CORPUS)
def test_reduced_matches_sqrt_route_entrywise(spec):
    grid = GridSpec(11)
    A, B = build_sl_generalized(spec, grid)
    direct = build_sl_reduced(spec, grid).to_dense()
    via_reduction = reduce_sqrt(A, B).hamiltonian.to_dense()
    scale = np.abs(direct).max()
    assert np.abs(direct - via_reduction).max() <= 1e-14 * scale


def test_lowest_eigenvalue_closed_form():
    grid = GridSpec(15)
    H = build_sl_reduced(unit_spec(), grid)
    w, _ = eigh_jacobi(H.to_dense(), vectors=False)
    expected = (4.0 / grid.dx ** 2) * np.sin(np.pi * grid.dx / 2.0) ** 2
    assert w[0] == pytest.approx(expected, abs=1e-10)
    assert expected < np.pi ** 2


def test_second_order_convergence_to_pi_squared():
    errors = []
    for n in (15, 31, 63):
        H = build_sl_reduced(unit_spec(), GridSpec(n))
        w, _ = eigh_jacobi(H.to_dense(), vectors=False)
        errors.append(np.pi ** 2 - w[0])
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_positive_spectrum_for_nonnegative_q():
    for spec in (unit_spec(), unit_spec(q=Coefficient.polynomial([0.0, 2.0]))):
        H = build_sl_reduced(spec, GridSpec(12))
        w, _ = eigh_jacobi(H.to_dense(), vectors=False)
        assert w[0] > 0.0


def test_nonpositive_coefficients_rejected():
    with pytest.raises(NonPositiveCoefficient):
        build_sl_generalized(unit_spec(r=Coefficient.constant(-1.0)), GridSpec(4))
    with pytest.raises(NonPositiveCoefficient):
        build_sl_generalized(
            SturmLiouvilleSpec(Coefficient.polynomial([0.1, -1.0]), ZERO, ONE),
            GridSpec(4))
    with pytest.raises(NonPositiveCoefficient):
        build_sl_reduced(unit_spec(r=Coefficient.polynomial([0.05, -0.2])), GridSpec(8))
    with pytest.raises(NonPositiveCoefficient):  # NaN is not positive
        build_sl_generalized(unit_spec(p=Coefficient.constant(float("nan"))), GridSpec(4))


@pytest.mark.parametrize("field", ["p", "q", "r"])
def test_overflowing_coefficients_rejected(field):
    # Finite polynomial coefficients; at the grid point 0.8 (or in the sum of
    # two p values) the evaluation overflows to inf.
    spec = unit_spec(**{field: Coefficient.polynomial([1e308, 1e308])})
    for build in (build_sl_generalized, build_sl_reduced):
        with pytest.raises(NonPositiveCoefficient, match="overflow"), \
                np.errstate(over="ignore", invalid="ignore"):
            build(spec, GridSpec(4))


# ------------------------------------------------------------- finite elements


def test_tent_mass_unit_weight_closed_form():
    grid = GridSpec(8)
    M = build_fem_mass_tent(ONE, grid).to_dense()
    dx = grid.dx
    expected = (dx / 6.0) * (4.0 * np.eye(8) + np.diag(np.ones(7), 1)
                             + np.diag(np.ones(7), -1))
    assert np.abs(M - expected).max() <= 1e-15 * dx


def test_tent_mass_scales_linearly_in_weight():
    grid = GridSpec(6)
    M1 = build_fem_mass_tent(ONE, grid).to_dense()
    M3 = build_fem_mass_tent(Coefficient.constant(3.0), grid).to_dense()
    assert np.abs(M3 - 3.0 * M1).max() <= 1e-14


def test_tent_interior_row_sums_equal_dx():
    grid = GridSpec(10)
    M = build_fem_mass_tent(ONE, grid).to_dense()
    sums = M.sum(axis=1)
    assert np.abs(sums[1:-1] - grid.dx).max() <= 1e-15


def test_tent_mass_quadratic_weight_positive_definite():
    M = build_fem_mass_tent(Coefficient.polynomial([1.0, 0.0, 4.0]), GridSpec(9))
    w, _ = eigh_jacobi(M.to_dense(), vectors=False)
    assert w[0] > 0.0


def test_dg_mass_single_cell_order_one_gram():
    B = build_fem_mass_dg(ONE, n_cells=1, order=1)
    assert np.allclose(B.blocks[0], [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-15)


def test_dg_mass_order_zero_gives_cell_widths():
    B = build_fem_mass_dg(ONE, n_cells=5, order=0)
    assert np.allclose(B.to_dense(), np.eye(5) * 0.2, atol=1e-15)


def test_dg_mass_blocks_positive_definite_for_varied_weights():
    for r in (ONE, Coefficient.polynomial([1.0, 2.0]),
              Coefficient.from_samples([2.0, 1.0, 3.0, 1.5]),
              Coefficient.polynomial([0.5, 0.0, 2.0])):
        B = build_fem_mass_dg(r, n_cells=4, order=2)
        for blk in B.blocks:
            w, _ = eigh_jacobi(blk, vectors=False)
            assert w[0] > 0.0


def test_dg_mass_poly_weight_matches_quadrature_oracle():
    # weight 1 + 2x on a single cell: moments int_0^1 t^s (1 + 2t) dt
    B = build_fem_mass_dg(Coefficient.polynomial([1.0, 2.0]), n_cells=1, order=1)
    s = np.arange(3)
    moments = 1.0 / (s + 1) + 2.0 / (s + 2)
    expected = np.array([[moments[0], moments[1]], [moments[1], moments[2]]])
    assert np.allclose(B.blocks[0], expected, atol=1e-14)


def test_dg_mass_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveCoefficient):
        build_fem_mass_dg(Coefficient.polynomial([0.4, -1.0]), n_cells=4, order=1)


# --------------------------------------------------------------- fill density


def test_tent_inverse_sqrt_is_dense_dg_inverse_sqrt_is_block():
    # structural (exact-zero) fill: the tent inverse square root has none
    for n in (16, 32):
        M = build_fem_mass_tent(ONE, GridSpec(n))
        filled = fill_fraction(hermitian_inv_sqrt(M), rel_tol=0.0)
        assert filled > 0.9

    B = build_fem_mass_dg(ONE, n_cells=16, order=1)
    inv_sqrt = block_powers(B, -0.5)[0]
    pattern_fill = sum(s * s for s in B.block_sizes) / B.size ** 2
    assert fill_fraction(inv_sqrt, rel_tol=0.0) == pytest.approx(pattern_fill)
